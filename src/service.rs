//! The full query-service stack, assembled: session + monitor + service.
//!
//! [`ServiceRuntime`] wires a monitored [`Session`] to a
//! [`QueryService`] so the monitor's HTTP server becomes the service's
//! front door:
//!
//! - `POST /submit` accepts `{"sql","tenant"[,"label","deadline_ms"]}` and
//!   answers `202 {"id":N}` the moment the submission is journaled;
//! - workers compile and run accepted jobs through the session (the
//!   engine's cancellation token and governor deadline are wired to the
//!   service's), with the remaining deadline budget measured from submit
//!   time — queue wait counts;
//! - every lifecycle step (queued → running → retrying → terminal) is
//!   mirrored into the monitor directory, so `GET /progress/{id}` and the
//!   SSE streams cover submitted queries exactly like session-run ones;
//! - `POST /progress/{id}/cancel` cancels, `GET /service` reports
//!   admission/queue/retry statistics.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use qprog_exec::governor::CancellationToken;
use qprog_monitor::service::DirectoryObserver;
use qprog_service::{JobExecutor, JobSpec, QueryService, ServiceConfig};
use qprog_types::{QError, QResult};

use crate::session::{RunOptions, Session};

/// [`JobExecutor`] that compiles and runs jobs through a [`Session`].
///
/// Each dispatch attempt adopts the submission's pre-registered monitor
/// entry (same query id across retries) and links the service's
/// cancellation token and remaining deadline into the engine's governor.
struct SessionExecutor {
    session: Session,
}

impl JobExecutor for SessionExecutor {
    fn validate(&self, sql: &str) -> Result<(), String> {
        // Plan (parse + bind) without compiling: catches bad SQL at submit
        // time so it is rejected with a 400 instead of burning a worker.
        qprog_sql::plan_sql(self.session.builder(), sql)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn execute(
        &self,
        job: &JobSpec,
        cancel: CancellationToken,
        deadline: Option<Duration>,
    ) -> Result<u64, QError> {
        let mut handle = self.session.query_adopting(&job.sql, job.id)?;
        let mut options = RunOptions::new().cancel_token(cancel);
        if let Some(remaining) = deadline {
            options = options.deadline(remaining);
        }
        let rows = handle.run(options)?;
        Ok(rows.len() as u64)
    }
}

/// A running submit/queue/dispatch service bound to one monitored session.
///
/// ```no_run
/// # use qprog::prelude::*;
/// # use qprog::ServiceRuntime;
/// # let catalog = Catalog::new();
/// let session = SessionBuilder::new(catalog)
///     .observability(Observability::new().serve_on("127.0.0.1:0"))
///     .build()
///     .unwrap();
/// let runtime = ServiceRuntime::start(
///     session,
///     "/tmp/qprog-queue",
///     Default::default(),
/// )
/// .unwrap();
/// println!("submit to {}/submit", runtime.session().monitor().unwrap().url());
/// # runtime.drain();
/// ```
///
/// Dropping the runtime shuts the service down abruptly ([`QueryService::
/// shutdown`]): accepted-but-unfinished work stays journaled and is
/// re-dispatched on the next open. Call [`drain`](Self::drain) first for a
/// graceful ending (finish or checkpoint-abort in-flight work; every
/// terminal state reaches streaming subscribers as it is declared).
pub struct ServiceRuntime {
    session: Session,
    service: Arc<QueryService>,
    observer: Arc<DirectoryObserver>,
}

impl ServiceRuntime {
    /// Open (or recover) the journal at `dir` and start dispatching
    /// through `session`, which must have a monitor attached — the monitor
    /// is both the status surface and the HTTP front door.
    pub fn start(session: Session, dir: impl AsRef<Path>, cfg: ServiceConfig) -> QResult<Self> {
        let Some(server) = session.monitor().cloned() else {
            return Err(QError::internal(
                "ServiceRuntime requires a session with a monitor attached \
                 (Observability::serve_on or with_monitor)",
            ));
        };
        let observer = DirectoryObserver::new(
            Arc::clone(server.directory()),
            session.options().mode.label(),
        );
        let executor = Arc::new(SessionExecutor {
            session: session.clone(),
        });
        let service = QueryService::open(
            dir.as_ref(),
            cfg,
            executor,
            Arc::clone(&observer) as Arc<_>,
            session.metrics().cloned(),
        )
        .map_err(|e| QError::internal(format!("opening service journal: {e}")))?;
        server.set_service(Arc::clone(&service));
        Ok(ServiceRuntime {
            session,
            service,
            observer,
        })
    }

    /// The session executing submissions.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The underlying service (submit/status/cancel/stats without HTTP).
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// The monitor bridge (mostly useful for its tracked-entry count).
    pub fn observer(&self) -> &Arc<DirectoryObserver> {
        &self.observer
    }

    /// Graceful shutdown: stop admitting, let in-flight and queued work
    /// finish within the configured drain timeout and checkpoint-abort the
    /// rest (each terminal is pushed to streaming subscribers as it lands).
    pub fn drain(&self) {
        self.service.drain();
    }
}

impl Drop for ServiceRuntime {
    fn drop(&mut self) {
        // Abrupt by design: pending work stays journaled for the next
        // open. Graceful endings are an explicit `drain()`.
        self.service.shutdown();
    }
}

impl std::fmt::Debug for ServiceRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceRuntime")
            .field("stats", &self.service.stats())
            .finish()
    }
}
