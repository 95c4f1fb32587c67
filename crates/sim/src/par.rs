//! Order-preserving data-parallel map on scoped threads — the one place
//! in the workspace that starts threads.
//!
//! Everything the simulator computes must be a function of its inputs,
//! never of scheduling, so the primitive is deliberately rigid:
//!
//! * **Static partition.** Job `i` runs on worker `i mod T`, each worker
//!   walks its jobs in index order, and results come back in item order.
//!   Which thread ran which job — and therefore every per-worker buffer's
//!   growth history and the process's allocation count — depends only on
//!   `(len, T)`. A work-claiming queue would balance better and repeat
//!   worse.
//! * **The caller works.** The calling thread is worker 0; `T` workers
//!   cost `T − 1` spawns, and one worker costs none: the same closure
//!   runs inline, so there is no separate serial code path.
//! * **No nesting.** A call made from inside a worker runs inline on that
//!   worker. An experiments sweep that is already parallel across runs
//!   therefore keeps every run's table build on the run's own thread
//!   instead of oversubscribing the host.
//!
//! Workers share nothing but the `Sync` closures they are handed; the
//! only synchronization is the join.

use std::cell::Cell;

thread_local! {
    /// Set while the current thread is executing jobs for [`map_init`].
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a worker until dropped (restoring the
/// previous mark, so the calling thread is unmarked again after its lane
/// even when a job panics).
struct WorkerMark {
    was: bool,
}

impl WorkerMark {
    fn enter() -> Self {
        WorkerMark {
            was: IN_WORKER.with(|mark| mark.replace(true)),
        }
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        // `try_with`: a destructor must not panic, and thread-local
        // storage may already be gone while a thread unwinds.
        let _ = IN_WORKER.try_with(|mark| mark.set(self.was));
    }
}

/// Whether the current thread is executing a [`map_init`] job (any
/// `map_init` call it makes runs inline).
fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Worker count the host supports: `std::thread::available_parallelism`,
/// or 1 when the host cannot report it — an unknown host must not be
/// oversubscribed.
#[must_use]
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on up to `workers` threads and returns the
/// results in item order.
///
/// Each worker builds one private state with `init` and threads it through
/// its jobs (`f(&mut state, item)`) — scratch buffers are reused across a
/// worker's jobs and never shared. `f`'s result must not depend on the
/// state's history, or the output would vary with `workers`.
///
/// `workers` is clamped to `1..=items.len()`, and to 1 inside another
/// call's worker. A panic in any job reaches the caller with its original
/// payload once every worker has stopped.
pub fn map_init<T, S, R, I, F>(items: Vec<T>, workers: usize, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let len = items.len();
    let workers = if in_worker() {
        1
    } else {
        workers.clamp(1, len.max(1))
    };
    let run_lane = |lane: Vec<T>| -> Vec<R> {
        let mut state = init();
        lane.into_iter().map(|item| f(&mut state, item)).collect()
    };
    if workers == 1 {
        return run_lane(items);
    }

    // Deal job `i` to lane `i mod workers`.
    let mut lanes: Vec<Vec<T>> = (0..workers)
        .map(|w| Vec::with_capacity((len - w).div_ceil(workers)))
        .collect();
    for (item, w) in items.into_iter().zip((0..workers).cycle()) {
        if let Some(lane) = lanes.get_mut(w) {
            lane.push(item);
        }
    }

    let mut lanes = lanes.into_iter();
    let own = lanes.next().unwrap_or_default();
    let run_lane = &run_lane;
    let done: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .map(|lane| {
                scope.spawn(move || {
                    let _mark = WorkerMark::enter();
                    run_lane(lane)
                })
            })
            .collect();
        let mut done = Vec::with_capacity(workers);
        {
            let _mark = WorkerMark::enter();
            done.push(run_lane(own));
        }
        for handle in handles {
            match handle.join() {
                Ok(results) => done.push(results),
                // Leaving the scope joins the remaining workers first.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });

    // Undo the deal: lane lengths never increase with the lane index, so
    // the first exhausted lane in round-robin order ends the sequence.
    let mut done: Vec<std::vec::IntoIter<R>> = done.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::with_capacity(len);
    'deal: loop {
        for lane in &mut done {
            match lane.next() {
                Some(result) => out.push(result),
                None => break 'deal,
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    fn squares(len: u64, workers: usize) -> Vec<u64> {
        map_init((0..len).collect(), workers, || (), |(), x| x * x)
    }

    #[test]
    fn results_keep_item_order_at_every_length() {
        for workers in [1, 2, 3, 4, 7] {
            // Empty, single, fewer items than workers, many more.
            for len in [0, 1, 2, 3, 1000] {
                let expected: Vec<u64> = (0..len).map(|x| x * x).collect();
                assert_eq!(
                    squares(len, workers),
                    expected,
                    "{len} items, {workers} workers"
                );
            }
        }
        assert_eq!(
            squares(5, 0),
            vec![0, 1, 4, 9, 16],
            "zero workers means one"
        );
    }

    #[test]
    fn each_worker_threads_one_state_through_its_jobs_in_order() {
        // The state records the jobs its worker has seen: job `i` must be
        // the `i / T`-th job of worker `i mod T`.
        let workers = 3;
        let seen = map_init(
            (0..10usize).collect(),
            workers,
            Vec::new,
            |mine: &mut Vec<usize>, i| {
                mine.push(i);
                mine.clone()
            },
        );
        for (i, mine) in seen.iter().enumerate() {
            let expected: Vec<usize> = (i % workers..=i).step_by(workers).collect();
            assert_eq!(mine, &expected, "job {i}");
        }
    }

    #[test]
    fn workers_run_concurrently_and_the_caller_is_worker_zero() {
        // Both jobs wait on a two-party barrier: on one thread this would
        // never return.
        let barrier = Barrier::new(2);
        let caller = std::thread::current().id();
        let ids: Vec<ThreadId> = map_init(
            vec![(), ()],
            2,
            || (),
            |(), ()| {
                barrier.wait();
                std::thread::current().id()
            },
        );
        assert_eq!(ids[0], caller);
        assert_ne!(ids[1], caller);
    }

    #[test]
    fn nested_calls_run_on_the_calling_worker() {
        assert!(!in_worker());
        let outer: Vec<(ThreadId, Vec<ThreadId>)> = map_init(
            vec![(), (), ()],
            3,
            || (),
            |(), ()| {
                assert!(in_worker());
                let inner = map_init(vec![(); 8], 4, || (), |(), ()| std::thread::current().id());
                (std::thread::current().id(), inner)
            },
        );
        for (worker, inner) in &outer {
            assert_eq!(inner.len(), 8);
            assert!(inner.iter().all(|id| id == worker));
        }
        // The calling thread was worker 0 and is unmarked again.
        assert!(!in_worker());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        for bad in [0u32, 1, 5] {
            let caught = std::panic::catch_unwind(|| {
                map_init(
                    (0..6u32).collect(),
                    2,
                    || (),
                    |(), i| {
                        assert!(i != bad, "job {i} failed");
                        i
                    },
                )
            });
            let payload = caught.expect_err("the panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .expect("assert! with arguments carries a String");
            assert_eq!(message, &format!("job {bad} failed"));
            assert!(!in_worker(), "the caller's mark survives the unwind");
        }
    }
}
