//! Std-only scoped worker pool for partition-parallel operator phases.
//!
//! The hash join's build and probe drains cut their input into contiguous
//! chunks and run every drain through [`run_tasks`], one task per chunk —
//! a serial drain is the one-chunk case, run inline. The pool is
//! deliberately minimal: threads live only for the duration of one call
//! (no idle workers, no channels, nothing to leak), and results come back
//! **in task-index order** so callers fold per-chunk fragments in scan
//! order, which keeps partitions and converged estimates identical at
//! every width.
//!
//! Error handling mirrors the serial engine's: a worker panic is captured at
//! join and surfaces as [`ExecError::OperatorPanic`] (the same conversion
//! [`guarded`](crate::governor::guarded) performs for serial drains), and
//! when several tasks fail the error of the **lowest task index** wins, so a
//! multi-fault run reports deterministically.

use std::time::{Duration, Instant};

use qprog_types::{ExecError, QError, QResult};

use crate::governor::panic_message;

/// One task's result plus how long its worker was busy (used for the
/// per-worker wall-time attribution published as
/// [`TraceEventKind::WorkerWallTime`](crate::trace::TraceEventKind)).
#[derive(Debug)]
pub struct TaskOutput<T> {
    /// The task's return value.
    pub value: T,
    /// Wall time the worker spent inside the task body.
    pub busy: Duration,
}

/// Run `tasks` across scoped worker threads — one thread per task — and
/// return their outputs in task-index order.
///
/// Each task receives its own index. All threads are joined before this
/// function returns (scoped spawning), so callers never leak workers even
/// when a task fails or panics; remaining tasks run to completion and their
/// results are discarded in favor of the lowest-index error.
///
/// A single task runs inline on the calling thread — no spawn cost — through
/// the same fail points as the multi-task path, `exec/parallel/spawn` aside.
pub fn run_tasks<T, F>(tasks: Vec<F>) -> QResult<Vec<TaskOutput<T>>>
where
    T: Send,
    F: FnOnce(usize) -> QResult<T> + Send,
{
    let run = |i: usize, task: F| -> QResult<TaskOutput<T>> {
        qprog_fault::fail_point!("exec/parallel/task");
        let start = Instant::now();
        let value = task(i)?;
        Ok(TaskOutput {
            value,
            busy: start.elapsed(),
        })
    };
    let results: Vec<QResult<TaskOutput<T>>> = if tasks.len() <= 1 {
        tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| run(i, task))
            .collect()
    } else {
        qprog_fault::fail_point!("exec/parallel/spawn");
        std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .into_iter()
                .enumerate()
                .map(|(i, task)| {
                    std::thread::Builder::new()
                        .name(format!("qprog-worker-{i}"))
                        .spawn_scoped(scope, move || run(i, task))
                })
                .collect();
            handles
                .into_iter()
                .map(|spawned| match spawned {
                    Ok(handle) => handle.join().unwrap_or_else(|payload| {
                        Err(ExecError::OperatorPanic(panic_message(&*payload)).into())
                    }),
                    Err(e) => Err(QError::internal(format!("worker spawn failed: {e}"))),
                })
                .collect()
        })
    };
    qprog_fault::fail_point!("exec/parallel/merge");
    // Deterministic error selection: the lowest task index's error wins.
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<_> = (0..8)
            .map(|i| {
                move |idx: usize| -> QResult<usize> {
                    assert_eq!(idx, i);
                    // Finish in scrambled real-time order.
                    std::thread::sleep(Duration::from_millis(((8 - i) % 3) as u64));
                    Ok(i * 10)
                }
            })
            .collect();
        let out = run_tasks(tasks).unwrap();
        let values: Vec<usize> = out.iter().map(|o| o.value).collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn lowest_index_error_wins() {
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                move |_: usize| -> QResult<()> {
                    if i >= 1 {
                        Err(QError::internal(format!("task {i} failed")))
                    } else {
                        Ok(())
                    }
                }
            })
            .collect();
        let e = run_tasks(tasks).unwrap_err();
        assert!(e.to_string().contains("task 1 failed"), "{e}");
    }

    #[test]
    fn worker_panics_become_operator_panic_errors() {
        let tasks: Vec<_> = (0..3)
            .map(|i| {
                move |_: usize| -> QResult<()> {
                    if i == 2 {
                        panic!("worker exploded");
                    }
                    Ok(())
                }
            })
            .collect();
        let e = run_tasks(tasks).unwrap_err();
        match e.lifecycle() {
            Some(ExecError::OperatorPanic(msg)) => {
                assert!(msg.contains("worker exploded"), "{msg}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_task_runs_inline() {
        let caller = std::thread::current().id();
        let out = run_tasks(vec![move |_: usize| -> QResult<std::thread::ThreadId> {
            Ok(std::thread::current().id())
        }])
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, caller);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out = run_tasks(Vec::<fn(usize) -> QResult<()>>::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn busy_time_is_recorded() {
        let out = run_tasks(vec![
            |_: usize| -> QResult<()> {
                std::thread::sleep(Duration::from_millis(10));
                Ok(())
            },
            |_: usize| -> QResult<()> { Ok(()) },
        ])
        .unwrap();
        assert!(out[0].busy >= Duration::from_millis(8));
    }
}
