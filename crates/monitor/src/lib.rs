//! Live progress monitoring for concurrent qprog queries.
//!
//! The paper's framework is *online*: a progress estimate is only useful if
//! someone can watch it while the query runs. This crate serves that view
//! over plain HTTP using nothing but `std::net`:
//!
//! - [`directory`] — a [`QueryDirectory`](directory::QueryDirectory) where
//!   live queries register, and unregister automatically when their
//!   registration token drops. An entry is told, not polled: the token's
//!   holder sets its lifecycle, and its progress is the query's own last
//!   publication (`CompiledQuery::on_progress`), with per-operator detail
//!   from the operators' counters (their last phase included);
//! - [`server`] — a threaded [`MonitorServer`](server::MonitorServer) on
//!   `std::net::TcpListener` answering
//!   `GET /metrics` (Prometheus text from an attached
//!   [`qprog_metrics::Registry`]), `GET /progress` and
//!   `GET /progress/{query_id}` (JSON: whole-query `C/T` with `[lo, hi]`
//!   bounds and per-operator `K_i`/`N_i`/phase), and `GET /` (a
//!   self-contained HTML dashboard fed by the `/events` stream);
//! - [`http`] — the minimal HTTP/1.1 request parsing and response writing
//!   underneath, shared by the server and its tests;
//! - [`hub`] — the server-push [`StreamHub`](hub::StreamHub) behind
//!   `GET /progress/{id}/stream` and the `GET /events` firehose: a frame is
//!   encoded **once** and fanned out through bounded queues (slow readers
//!   drop stale progress frames and are eventually evicted; terminal frames
//!   are never dropped). Lifecycle frames are pushed at the transition; the
//!   broadcast tick samples health and sends running queries their last
//!   publication;
//! - [`eta`] — the [`EtaSmoother`](eta::EtaSmoother) turning the raw
//!   `elapsed × (1 − p) / p` remaining-time formula into a stable number.
//!
//! A registered query pays for its publications (one snapshot per `ΣK`
//! step of 0.1% of `T̂`, in the executing thread, plus a cell write each);
//! a query that never registers pays nothing.

pub mod dashboard;
pub mod directory;
pub mod eta;
pub mod http;
pub mod hub;
pub mod server;
pub mod service;

// The submit/queue/dispatch service this crate fronts (`POST /submit`);
// re-exported so monitor users need only one dependency.
pub use qprog_service;

pub use directory::{ManagedState, MonitoredQuery, QueryDirectory, QueryState};
pub use eta::EtaSmoother;
pub use hub::{StreamHub, StreamNext, StreamSubscriber};
pub use server::{MonitorServer, ServerConfig};
pub use service::DirectoryObserver;
