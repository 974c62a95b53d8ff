//! Bridge between the query service's [`StatusObserver`] callbacks and the
//! monitor's [`QueryDirectory`], so every submission — queued, retrying,
//! or terminal — is visible over `/progress`, `/progress/{id}`, and SSE
//! exactly like a session-run query.
//!
//! The bridge holds each submission's [`MonitoredQuery`] registration
//! token, so it alone sets the entry's lifecycle: a job stays listed from
//! acceptance until the service evicts its terminal record, and the
//! exactly-once terminal SSE frame leaves inside the callback that declares
//! the outcome (never on a transient attempt's abort).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use qprog_exec::sync::Mutex;
use qprog_service::{JobOutcome, JobSpec, StatusObserver};

use crate::directory::{ManagedState, MonitoredQuery, QueryDirectory};

/// [`StatusObserver`] implementation backed by a [`QueryDirectory`].
///
/// Callbacks may arrive under the service's state lock (`on_terminal` always
/// does); every method here only touches the directory — state recorded and
/// frame published under its entries lock, then the hub's — never the
/// service, so the lock order service → entries → hub is acyclic.
pub struct DirectoryObserver {
    directory: Arc<QueryDirectory>,
    /// Estimator label rendered for managed entries (execution attaches
    /// later; until then the directory has nothing else to report).
    estimator: String,
    tokens: Mutex<BTreeMap<u64, MonitoredQuery>>,
}

impl DirectoryObserver {
    /// A bridge publishing service lifecycle into `directory`.
    pub fn new(directory: Arc<QueryDirectory>, estimator: impl Into<String>) -> Arc<Self> {
        Arc::new(DirectoryObserver {
            directory,
            estimator: estimator.into(),
            tokens: Mutex::new(BTreeMap::new()),
        })
    }

    /// The directory this bridge publishes into.
    pub fn directory(&self) -> &Arc<QueryDirectory> {
        &self.directory
    }

    /// Registration tokens currently held (queued/running/retained jobs).
    pub fn tracked(&self) -> usize {
        self.tokens.lock().len()
    }
}

impl StatusObserver for DirectoryObserver {
    fn allocate_id(&self, floor: u64) -> u64 {
        self.directory.allocate_id(floor)
    }

    fn on_queued(&self, job: &JobSpec) {
        let token =
            self.directory
                .register_managed(job.id, &job.label, &self.estimator, &job.tenant);
        self.tokens.lock().insert(job.id, token);
    }

    fn on_dispatched(&self, job: &JobSpec) {
        // `job.attempt` counts *prior* attempts; this dispatch is the next.
        self.directory.set_managed_state(
            job.id,
            ManagedState::Running {
                attempt: job.attempt + 1,
            },
        );
    }

    fn on_retrying(&self, job: &JobSpec, kind: &'static str, _backoff: Duration) {
        self.directory.set_managed_state(
            job.id,
            ManagedState::Retrying {
                kind: kind.to_string(),
                attempt: job.attempt + 1,
            },
        );
    }

    fn on_terminal(&self, job: &JobSpec, outcome: &JobOutcome) {
        let state = match outcome {
            JobOutcome::Finished { rows } => ManagedState::Terminal {
                done: true,
                failure: None,
                rows: Some(*rows),
            },
            JobOutcome::Failed { kind, .. } => ManagedState::Terminal {
                done: false,
                failure: Some((*kind).to_string()),
                rows: None,
            },
        };
        self.directory.set_managed_state(job.id, state);
    }

    fn on_evicted(&self, id: u64) {
        // Dropping the token unregisters the entry; its terminal frame
        // went out when the outcome was declared.
        self.tokens.lock().remove(&id);
    }
}

impl std::fmt::Debug for DirectoryObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectoryObserver")
            .field("tracked", &self.tracked())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_service::JobSpec;
    use std::time::Instant;

    fn job(id: u64, tenant: &str) -> JobSpec {
        JobSpec {
            id,
            tenant: tenant.to_string(),
            label: format!("job {id}"),
            sql: "select 1".to_string(),
            deadline: None,
            submitted: Instant::now(),
            attempt: 0,
        }
    }

    #[test]
    fn observer_mirrors_the_lifecycle_into_the_directory() {
        let dir = Arc::new(QueryDirectory::new(None));
        let obs = DirectoryObserver::new(Arc::clone(&dir), "gnm");
        let id = obs.allocate_id(1);
        let mut j = job(id, "acme");
        obs.on_queued(&j);
        assert_eq!(obs.tracked(), 1);
        assert!(dir
            .render_query(id)
            .unwrap()
            .contains("\"state\":\"queued\""));

        obs.on_dispatched(&j);
        let json = dir.render_query(id).unwrap();
        assert!(json.contains("\"state\":\"running\""), "{json}");
        assert!(json.contains("\"attempt\":1"), "{json}");

        obs.on_retrying(&j, "injected", Duration::from_millis(5));
        let json = dir.render_query(id).unwrap();
        assert!(json.contains("\"state\":\"retrying\""), "{json}");
        assert!(json.contains("\"failure\":\"injected\""), "{json}");

        j.attempt = 1;
        obs.on_dispatched(&j);
        assert!(dir.render_query(id).unwrap().contains("\"attempt\":2"));

        obs.on_terminal(&j, &JobOutcome::Finished { rows: 7 });
        let json = dir.render_query(id).unwrap();
        assert!(json.contains("\"state\":\"done\""), "{json}");
        assert!(json.contains("\"rows\":7"), "{json}");

        // Eviction drops the registration: the entry disappears.
        obs.on_evicted(id);
        assert_eq!(obs.tracked(), 0);
        assert!(dir.render_query(id).is_none());
    }

    #[test]
    fn failed_outcomes_render_their_typed_kind() {
        let dir = Arc::new(QueryDirectory::new(None));
        let obs = DirectoryObserver::new(Arc::clone(&dir), "gnm");
        let id = obs.allocate_id(1);
        let j = job(id, "t");
        obs.on_queued(&j);
        obs.on_terminal(
            &j,
            &JobOutcome::Failed {
                kind: "deadline",
                detail: "expired in queue".to_string(),
            },
        );
        let json = dir.render_query(id).unwrap();
        assert!(json.contains("\"state\":\"failed\""), "{json}");
        assert!(json.contains("\"failure\":\"deadline\""), "{json}");
        assert!(json.contains("\"done\":false"), "{json}");
    }
}
