//! The self-contained HTML dashboard served at `GET /`.
//!
//! One page, zero external assets. It subscribes to the `GET /events`
//! server-push stream (SSE) for live summaries, health transitions, and
//! terminal frames; the browser's `EventSource` reconnects a dropped
//! stream by itself. Membership and per-operator detail (`GET /progress`,
//! `GET /progress/{id}`) are refreshed on a 2 s reconcile pass. Each live
//! query renders a progress bar (point estimate plus the `[lo, hi]`
//! confidence band), a health badge (healthy / stalled / unstable), and a
//! per-operator table of `K_i`, `N_i`, bounds, and phase.

/// The dashboard page.
pub const DASHBOARD_HTML: &str = r#"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>qprog — live query progress</title>
<style>
  body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
         color: #1a1a24; background: #fafafa; }
  h1 { font-size: 1.2rem; }
  .muted { color: #777; }
  .query { border: 1px solid #ddd; border-radius: 8px; padding: .8rem 1rem;
           margin: .8rem 0; background: #fff; }
  .label { font-weight: 600; overflow-wrap: anywhere; }
  .bar { position: relative; height: 18px; background: #eee; border-radius: 9px;
         overflow: hidden; margin: .45rem 0; }
  .bar .band { position: absolute; top: 0; bottom: 0; background: #b7d3f2; }
  .bar .fill { position: absolute; top: 0; bottom: 0; background: #2f6fb4;
               border-radius: 9px 0 0 9px; transition: width .3s; }
  .bar.done .fill { background: #3d9a52; }
  .bar.failed .fill { background: #c43d3d; }
  .bar.queued .fill { background: #a8a8b8; }
  .bar.retrying .fill { background: #d9941f; }
  .failure { color: #c43d3d; font-weight: 600; }
  .retrying-note { color: #9a6b00; font-weight: 600; }
  .tenant { font-size: 11px; font-weight: 600; padding: .1rem .45rem;
            border-radius: 9px; background: #e8eef7; color: #2f4f74;
            vertical-align: middle; }
  #service .strip { border: 1px solid #ddd; border-radius: 8px;
            padding: .5rem 1rem; margin: .8rem 0; background: #fff;
            font-variant-numeric: tabular-nums; }
  .health { font-size: 11px; font-weight: 600; padding: .1rem .45rem;
            border-radius: 9px; vertical-align: middle; }
  .health.healthy { background: #e4f3e7; color: #2c7a3f; }
  .health.stalled { background: #fbe5e5; color: #c43d3d; }
  .health.unstable { background: #fdf0d7; color: #9a6b00; }
  .health.regressed { background: #fbe5e5; color: #c43d3d; }
  .health.clean { background: #e4f3e7; color: #2c7a3f; }
  .pct { font-variant-numeric: tabular-nums; }
  table { border-collapse: collapse; margin-top: .5rem; font-size: 12.5px;
          font-variant-numeric: tabular-nums; }
  th, td { text-align: right; padding: .15rem .6rem; border-bottom: 1px solid #eee; }
  th:first-child, td:first-child { text-align: left; }
  a { color: #2f6fb4; }
  .wf-link { font-size: 11.5px; }
  .waterfall { margin-top: .5rem; font-size: 11.5px;
               font-variant-numeric: tabular-nums; }
  .wf-row { display: flex; align-items: center; gap: .5rem; margin: 1px 0; }
  .wf-name { flex: 0 0 15rem; text-align: right; color: #555;
             overflow: hidden; white-space: nowrap; }
  .wf-track { flex: 1; position: relative; height: 10px; background: #f2f2f2;
              border-radius: 3px; }
  .wf-dur { flex: 0 0 5rem; color: #777; }
  .wf-span { position: absolute; top: 0; bottom: 0; border-radius: 3px;
             min-width: 1px; background: #2f6fb4; }
  .wf-lifecycle { background: #8a6fc9; }
  .wf-pipeline { background: #d9941f; }
  .wf-operator { background: #2f6fb4; }
  .wf-phase { background: #58a0d8; }
  .wf-worker { background: #5aa56a; }
</style>
</head>
<body>
<h1>qprog — live query progress</h1>
<p class="muted">Streaming <a href="/events">/events</a> (SSE, reconciled
against <a href="/progress">/progress</a> every 2 s)
&middot; <a href="/metrics">/metrics</a> (Prometheus)</p>
<div id="service"></div>
<div id="queries"><p class="muted">waiting for queries&hellip;</p></div>
<div id="history"></div>
<script>
const fmt = n => n == null ? "–" : Number(n).toLocaleString("en-US",
  {maximumFractionDigits: 0});
const pct = f => (100 * f).toFixed(1) + "%";

function bar(q) {
  const lo = Math.min(q.lo ?? q.fraction, q.hi ?? q.fraction);
  const hi = Math.max(q.lo ?? q.fraction, q.hi ?? q.fraction);
  const cls = q.state === "failed" ? " failed" : q.done ? " done"
    : q.state === "queued" ? " queued" : q.state === "retrying" ? " retrying" : "";
  return `<div class="bar${cls}">
    <div class="band" style="left:${100 * lo}%;width:${100 * (hi - lo)}%"></div>
    <div class="fill" style="width:${100 * q.fraction}%"></div>
  </div>`;
}

const badge = q => q.health == null ? "" :
  `<span class="health ${q.health}">${q.health}</span>`;

function ops(detail) {
  if (!detail || !detail.ops || !detail.ops.length) return "";
  const rows = detail.ops.map(o => `<tr>
    <td>${o.name}</td><td>${o.phase ?? (o.finished ? "done" : "–")}</td>
    <td>${fmt(o.k)}</td><td>${fmt(o.n)}</td>
    <td>${o.lo == null ? "–" : fmt(o.lo) + " … " + fmt(o.hi)}</td>
    <td>${o.wall_us == null ? "–" : (o.wall_us / 1e3).toFixed(1) + " ms"}</td>
    <td>${o.workers ?? "–"}</td>
  </tr>`).join("");
  return `<table><tr><th>operator</th><th>phase</th><th>K</th><th>N&#770;</th>
    <th>bounds</th><th>wall</th><th>thr</th></tr>${rows}</table>`;
}

let queries = new Map();  // id -> latest summary
let details = new Map();  // id -> per-operator detail (reconcile pass)
let traces = new Map();   // id -> Chrome trace JSON (waterfall tab)
let waterfall = new Set();// query ids with the waterfall tab open

// Waterfall tab: toggle per query; span trees come from GET /trace/{id}
// (Chrome trace-event JSON — the same document Perfetto loads).
async function toggleWaterfall(id) {
  if (waterfall.has(id)) { waterfall.delete(id); render(); return; }
  try {
    const res = await fetch(`/trace/${id}`);
    if (!res.ok) return;
    traces.set(id, await res.json());
    waterfall.add(id);
    render();
  } catch (e) { /* no service attached / query evicted */ }
}

function waterfallView(id) {
  if (!waterfall.has(id)) return "";
  const t = traces.get(id);
  if (!t || !t.traceEvents) return "";
  const names = new Map();  // tid -> track name (thread_name metadata)
  const spans = [];
  for (const e of t.traceEvents) {
    if (e.ph === "M" && e.name === "thread_name") names.set(e.tid, e.args.name);
    if (e.ph === "X") spans.push(e);
  }
  if (!spans.length) return "";
  const t0 = Math.min(...spans.map(s => s.ts));
  const total = Math.max(1, Math.max(...spans.map(s => s.ts + s.dur)) - t0);
  const rows = spans.map(s => `<div class="wf-row">
    <span class="wf-name" title="${s.name}">${names.get(s.tid) ?? s.tid} &middot; ${s.name}</span>
    <div class="wf-track"><div class="wf-span wf-${s.cat}"
      style="left:${100 * (s.ts - t0) / total}%;width:${100 * s.dur / total}%"></div></div>
    <span class="wf-dur">${(s.dur / 1e3).toFixed(2)} ms</span>
  </div>`).join("");
  return `<div class="waterfall">${rows}</div>`;
}

function render() {
  const root = document.getElementById("queries");
  const list = [...queries.values()].sort((a, b) => a.id - b.id);
  if (!list.length) {
    root.innerHTML = '<p class="muted">no live queries</p>';
    return;
  }
  root.innerHTML = list.map(q => `<div class="query">
    <div class="label">#${q.id} &middot; ${q.label}
      <span class="muted">[${q.estimator}]</span>
      ${q.tenant == null ? "" : `<span class="tenant">${q.tenant}${
        q.attempt > 1 ? ` &middot; attempt ${q.attempt}` : ""}</span>`}
      ${badge(q)}</div>
    ${bar(q)}
    <div><span class="pct">${pct(q.fraction)}</span>
      <span class="muted">(bounds ${pct(q.lo)} – ${pct(q.hi)})
      &middot; C=${fmt(q.current)} / T&#770;=${fmt(q.total)}
      &middot; pipelines ${q.pipelines_finished}/${q.pipelines}
      &middot; ${(q.elapsed_us / 1e6).toFixed(2)}s
      ${q.eta_us == null ? "" : `&middot; ETA ${(q.eta_us / 1e6).toFixed(1)}s`}
      ${q.done ? `&middot; done${q.rows == null ? "" : ", " + fmt(q.rows) + " rows"}` : ""}
      </span>
      ${q.state === "failed" ? `<span class="failure">&middot; failed (${q.failure})${
        q.rows == null ? "" : ", " + fmt(q.rows) + " rows before abort"}</span>` : ""}
      ${q.state === "queued" ? `<span class="muted">&middot; queued</span>` : ""}
      ${q.state === "retrying" ? `<span class="retrying-note">&middot; retrying (${
        q.failure})</span>` : ""}
      ${q.tenant == null ? "" : `<span class="wf-link">&middot;
        <a href='javascript:void(0)' onclick="toggleWaterfall(${q.id})">${
          waterfall.has(q.id) ? "hide waterfall" : "waterfall"}</a> &middot;
        <a href="/trace/${q.id}">trace</a></span>`}
      </div>
    ${ops(details.get(q.id))}
    ${waterfallView(q.id)}
  </div>`).join("");
}

// Membership/detail reconcile pass over the JSON endpoints.
async function poll() {
  try {
    const res = await fetch("/progress");
    const data = await res.json();
    queries = new Map(data.queries.map(q => [q.id, q]));
    await Promise.all(data.queries.map(q =>
      fetch(`/progress/${q.id}`).then(r => r.ok ? r.json() : null)
        .then(d => { if (d) details.set(q.id, d); }).catch(() => null)));
    for (const id of [...details.keys()])
      if (!queries.has(id)) details.delete(id);
    render();
  } catch (e) { /* server going away between polls is fine */ }
}

// The data path: server-push over SSE. One broadcast frame updates every
// open dashboard.
function connect() {
  if (!window.EventSource) return;
  const es = new EventSource("/events");
  const upsert = e => {
    const q = JSON.parse(e.data);
    queries.set(q.id, q);
    render();
  };
  es.addEventListener("snapshot", e => {
    queries = new Map(JSON.parse(e.data).queries.map(q => [q.id, q]));
    render();
  });
  es.addEventListener("progress", upsert);
  es.addEventListener("terminal", upsert);
  es.addEventListener("health", e => {
    const h = JSON.parse(e.data);
    const q = queries.get(h.id);
    if (q) { q.health = h.to; render(); }
  });
}

// Run history: archived traces + progress-quality scorecards from the
// attached corpus (absent — and the section hidden — when the session has
// none). Refreshed on a slow cadence; history only changes when a query
// finishes.
async function pollHistory() {
  const root = document.getElementById("history");
  try {
    const res = await fetch("/history?limit=25");
    if (!res.ok) { root.innerHTML = ""; return; }
    const data = await res.json();
    const runs = data.runs.slice().reverse();
    const rows = runs.map(r => `<tr>
      <td><a href="/history/${r.run}/trace">#${r.run}</a></td>
      <td class="label">${r.workload}</td>
      <td>${r.estimator}</td><td>${r.state}</td>
      <td>${(r.wall_us / 1e3).toFixed(1)} ms</td>
      <td>${r.mean_abs_err == null ? "–" : r.mean_abs_err.toFixed(4)}</td>
      <td>${r.convergence == null ? "never" : r.convergence.toFixed(2)}</td>
      <td>${r.monotonicity_violations}</td>
      <td>${r.regressions > 0
        ? `<span class="health regressed">${r.regressions} regressed</span>`
        : `<span class="health clean">clean</span>`}</td>
    </tr>`).join("");
    root.innerHTML = `<h1>run history</h1>
      <p class="muted"><a href="/history">/history</a> &middot;
      ${runs.length} archived run${runs.length === 1 ? "" : "s"} shown</p>
      <table><tr><th>run</th><th>workload</th><th>est</th><th>state</th>
      <th>wall</th><th>mean err</th><th>conv</th><th>mono</th>
      <th>quality</th></tr>${rows}</table>`;
  } catch (e) { root.innerHTML = ""; }
}

// Service strip: admission/queue/retry statistics from the query service
// front door. Absent — and the strip hidden — when no service is attached
// (the endpoint answers 404).
async function pollService() {
  const root = document.getElementById("service");
  try {
    const res = await fetch("/service");
    if (!res.ok) { root.innerHTML = ""; return; }
    const s = await res.json();
    const tenants = (s.tenants || []).map(t =>
      `<span class="tenant">${t.tenant}: ${t.inflight}</span>`).join(" ");
    root.innerHTML = `<div class="strip">
      <b>query service</b> ${s.admitting ? "" : '<span class="failure">draining</span>'}
      &middot; queue ${s.queue_depth} &middot; running ${s.running}
      &middot; admitted ${fmt(s.admitted)} / shed ${fmt(s.rejected)}
      &middot; finished ${fmt(s.finished)} / failed ${fmt(s.failed)}
      &middot; retries ${fmt(s.retries)}
      ${tenants ? "&middot; in-flight " + tenants : ""}</div>`;
  } catch (e) { root.innerHTML = ""; }
}

let beat = 0;
setInterval(() => {
  beat += 1;
  if (beat % 4 === 0) { poll(); pollService(); }
  if (beat % 10 === 0) pollHistory();
}, 500);
connect();
poll();
pollService();
pollHistory();
</script>
</body>
</html>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dashboard_is_self_contained_and_polls_the_json_endpoints() {
        assert!(DASHBOARD_HTML.starts_with("<!doctype html>"));
        assert!(DASHBOARD_HTML.contains("fetch(\"/progress\")"));
        assert!(DASHBOARD_HTML.contains("/progress/${q.id}"));
        // no external assets
        assert!(!DASHBOARD_HTML.contains("http://"));
        assert!(!DASHBOARD_HTML.contains("https://"));
        assert!(!DASHBOARD_HTML.contains("src="));
    }

    #[test]
    fn dashboard_renders_eta_and_wall_time() {
        assert!(DASHBOARD_HTML.contains("q.eta_us"));
        assert!(DASHBOARD_HTML.contains("ETA"));
        assert!(DASHBOARD_HTML.contains("o.wall_us"));
    }

    #[test]
    fn dashboard_renders_worker_counts() {
        assert!(DASHBOARD_HTML.contains("o.workers"));
        assert!(DASHBOARD_HTML.contains("<th>thr</th>"));
    }

    #[test]
    fn dashboard_renders_terminal_states() {
        assert!(DASHBOARD_HTML.contains(r#"q.state === "failed""#));
        assert!(DASHBOARD_HTML.contains("q.failure"));
        assert!(DASHBOARD_HTML.contains(".bar.failed .fill"));
    }

    #[test]
    fn dashboard_streams_and_leaves_reconnects_to_the_event_source() {
        assert!(DASHBOARD_HTML.contains(r#"new EventSource("/events")"#));
        assert!(DASHBOARD_HTML.contains(r#"addEventListener("snapshot""#));
        assert!(DASHBOARD_HTML.contains(r#"addEventListener("progress""#));
        assert!(DASHBOARD_HTML.contains(r#"addEventListener("terminal""#));
        // one data path: no polling fallback, and an error never closes
        // the stream (EventSource retries on its own)
        assert!(!DASHBOARD_HTML.contains("streaming"));
        assert!(!DASHBOARD_HTML.contains("es.close()"));
        assert!(DASHBOARD_HTML.contains("if (beat % 4 === 0) { poll();"));
    }

    #[test]
    fn dashboard_renders_run_history_with_regression_badges() {
        assert!(DASHBOARD_HTML.contains("fetch(\"/history?limit=25\")"));
        assert!(DASHBOARD_HTML.contains("/history/${r.run}/trace"));
        assert!(DASHBOARD_HTML.contains("r.mean_abs_err"));
        assert!(DASHBOARD_HTML.contains("r.regressions > 0"));
        assert!(DASHBOARD_HTML.contains(".health.regressed"));
        assert!(DASHBOARD_HTML.contains("pollHistory()"));
    }

    #[test]
    fn dashboard_renders_the_service_strip_and_managed_states() {
        assert!(DASHBOARD_HTML.contains("fetch(\"/service\")"));
        assert!(DASHBOARD_HTML.contains("s.queue_depth"));
        assert!(DASHBOARD_HTML.contains("s.retries"));
        assert!(DASHBOARD_HTML.contains("t.inflight"));
        assert!(DASHBOARD_HTML.contains("pollService()"));
        // managed lifecycle states get their own bar colours + notes
        assert!(DASHBOARD_HTML.contains(".bar.queued .fill"));
        assert!(DASHBOARD_HTML.contains(".bar.retrying .fill"));
        assert!(DASHBOARD_HTML.contains(r#"q.state === "queued""#));
        assert!(DASHBOARD_HTML.contains(r#"q.state === "retrying""#));
        assert!(DASHBOARD_HTML.contains("q.tenant"));
    }

    #[test]
    fn dashboard_renders_the_span_waterfall_tab() {
        assert!(DASHBOARD_HTML.contains("toggleWaterfall"));
        assert!(DASHBOARD_HTML.contains("fetch(`/trace/${id}`)"));
        assert!(DASHBOARD_HTML.contains("t.traceEvents"));
        // Complete spans render as positioned bars; metadata events name
        // the tracks.
        assert!(DASHBOARD_HTML.contains(r#"e.ph === "X""#));
        assert!(DASHBOARD_HTML.contains(r#"e.ph === "M""#));
        assert!(DASHBOARD_HTML.contains("wf-span"));
        assert!(DASHBOARD_HTML.contains(".wf-lifecycle"));
        assert!(DASHBOARD_HTML.contains(".wf-worker"));
        assert!(DASHBOARD_HTML.contains("waterfallView(q.id)"));
    }

    #[test]
    fn dashboard_renders_health_badges() {
        assert!(DASHBOARD_HTML.contains(r#"addEventListener("health""#));
        assert!(DASHBOARD_HTML.contains("q.health"));
        assert!(DASHBOARD_HTML.contains(".health.stalled"));
        assert!(DASHBOARD_HTML.contains(".health.unstable"));
        assert!(DASHBOARD_HTML.contains(".health.healthy"));
    }
}
