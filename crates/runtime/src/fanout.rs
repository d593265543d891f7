//! The workspace's thread fan-out, in two shapes.
//!
//! * [`par_map`], a scoped-thread map behind shard driving, serving
//!   ensembles, Monte-Carlo topologies and sweep cells. Workers claim
//!   item indices from an atomic counter and write each result into its
//!   own index-addressed slot, so the output order never depends on
//!   thread scheduling. Errors are deterministic too: once an error is
//!   recorded no worker claims a new index, and every index below it was
//!   already claimed and runs to completion, so the lowest failing index
//!   is always among the recorded results.
//! * `with_worker`, one helper thread that lives for a whole serving
//!   run and works on a `Board` it shares with the run's coordinator.
//!   It takes background jobs in FIFO order (the run's checkpoint
//!   saves), and at each mobility boundary it helps with the chunks of
//!   the merge's rate pass. The chunks are claimed from one counter by
//!   the helper and the coordinator alike, under the same lowest-index
//!   error rule, and the coordinator never waits for a chunk that no one
//!   has started: if the helper is busy with a job, the coordinator runs
//!   every chunk itself. Inputs and outputs are owned buffers on the
//!   board, reused from round to round, so nothing the coordinator
//!   mutates between rounds is borrowed across threads. Without a helper
//!   the same chunks and jobs run inline, in order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockWriteGuard};

/// Resolves a worker-thread request: `0` means one per available CPU.
pub fn worker_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Maps `f(index, &mut item)` over `items` on up to `threads` scoped
/// worker threads (`0` = one per available CPU) and returns the results
/// in index order.
///
/// # Errors
///
/// Returns the error of the lowest failing index, whatever the thread
/// count or scheduling.
pub fn par_map<I, T, E, F>(items: &mut [I], threads: usize, f: F) -> Result<Vec<T>, E>
where
    I: Send,
    T: Send,
    E: Send,
    F: Fn(usize, &mut I) -> Result<T, E> + Sync,
{
    let workers = worker_threads(threads).min(items.len());
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(index, item)| f(index, item))
            .collect();
    }

    let slots: Vec<_> = items
        .iter_mut()
        .map(|item| Mutex::new((item, None::<Result<T, E>>)))
        .collect();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while !failed.load(Ordering::SeqCst) {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let Some(slot) = slots.get(index) else {
                        break;
                    };
                    // A poisoned lock only means another worker panicked
                    // while holding it; the scope re-raises that panic, so
                    // recover the data rather than panicking twice.
                    let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    let outcome = f(index, slot.0);
                    if outcome.is_err() {
                        failed.store(true, Ordering::SeqCst);
                    }
                    slot.1 = Some(outcome);
                }
            });
        }
    });
    // Only indices above a recorded error can be unclaimed, and the
    // in-order collect stops at that error before reaching them.
    slots
        .into_iter()
        .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner).1)
        .collect()
}

/// Work the coordinator splits into chunks with the run's helper: chunk
/// `index` of `count` writes its result into its own output buffer.
pub(crate) trait Chunked: Send + Sync {
    /// One chunk's output buffer, kept on the board between rounds.
    type Output: Default + Send;
    /// A chunk's or a job's error.
    type Error: Send + From<WorkerLost>;

    /// Runs chunk `index` of `count` into `out`.
    fn run_chunk(
        &self,
        index: usize,
        count: usize,
        out: &mut Self::Output,
    ) -> Result<(), Self::Error>;
}

/// The helper thread ended (it panicked) with a chunk or job unfinished.
#[derive(Debug)]
pub(crate) struct WorkerLost;

/// A background job: runs once, to completion, in submission order.
type Job<E> = Box<dyn FnOnce() -> Result<(), E> + Send>;

/// What the coordinator and the helper share: the task of the chunk
/// rounds (written by the coordinator between rounds, read by both
/// during one), one output buffer per chunk, and the bookkeeping of
/// rounds and jobs behind one lock.
pub(crate) struct Board<T: Chunked> {
    task: RwLock<T>,
    outputs: Vec<Slot<T::Output>>,
    state: Mutex<State<T::Error>>,
    /// Wakes the helper: a round opened, a job arrived or the run ends.
    wake: Condvar,
    /// Wakes the coordinator: a chunk or a job finished, or the helper
    /// ended.
    done: Condvar,
}

/// One chunk's output buffer, alone on its cache lines: the coordinator
/// and the helper write neighbouring chunks at once, and a shared line
/// would bounce between their cores on every write to a buffer's
/// length.
#[repr(align(128))]
struct Slot<O>(Mutex<O>);

struct State<E> {
    round: Round<E>,
    jobs: VecDeque<Job<E>>,
    job_running: bool,
    /// The first failed job's error, until [`Worker::wait_jobs`] takes it.
    job_error: Option<E>,
    /// Set once the coordinator is done: the helper drains the jobs and
    /// ends.
    closing: bool,
    /// Set when the helper thread ends, normally or by a panic.
    helper_gone: bool,
}

/// One round of chunks; `claimed` is the next index to hand out.
struct Round<E> {
    open: bool,
    count: usize,
    claimed: usize,
    finished: usize,
    /// The lowest failing index so far, with its error.
    error: Option<(usize, E)>,
}

impl<E> Round<E> {
    /// Hands out the next chunk index, unless the round is closed, spent
    /// or has failed.
    fn claim(&mut self) -> Option<usize> {
        let index = self.claimed;
        (self.open && self.error.is_none() && index < self.count).then(|| {
            self.claimed += 1;
            index
        })
    }

    fn finish(&mut self, index: usize, outcome: Result<(), E>) {
        self.finished += 1;
        if let Err(e) = outcome {
            if self
                .error
                .as_ref()
                .is_none_or(|(lowest, _)| index < *lowest)
            {
                self.error = Some((index, e));
            }
        }
    }
}

impl<T: Chunked> Board<T> {
    /// A board for rounds of `chunks` chunks over `task`.
    pub(crate) fn new(task: T, chunks: usize) -> Self {
        Self {
            task: RwLock::new(task),
            outputs: (0..chunks).map(|_| Slot(Mutex::default())).collect(),
            state: Mutex::new(State {
                round: Round {
                    open: false,
                    count: 0,
                    claimed: 0,
                    finished: 0,
                    error: None,
                },
                jobs: VecDeque::new(),
                job_running: false,
                job_error: None,
                closing: false,
                helper_gone: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
        }
    }

    // A poisoned lock only means a thread panicked while holding it; the
    // scope re-raises that panic, so recover the data rather than
    // panicking twice.
    fn state(&self) -> MutexGuard<'_, State<T::Error>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_done<'g>(
        &self,
        state: MutexGuard<'g, State<T::Error>>,
    ) -> MutexGuard<'g, State<T::Error>> {
        self.done
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs chunk `index` of `count` into its output buffer.
    fn run(&self, index: usize, count: usize) -> Result<(), T::Error> {
        let task = self.task.read().unwrap_or_else(PoisonError::into_inner);
        let mut out = self.outputs[index]
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        task.run_chunk(index, count, &mut out)
    }

    /// The helper's loop: chunks of an open round first, then jobs in
    /// FIFO order; once the coordinator is done and no job is left, it
    /// ends.
    fn serve(&self) {
        /// Marks the helper gone however it ends, so the coordinator
        /// never waits for it after a panic.
        struct Gone<'b, T: Chunked>(&'b Board<T>);
        impl<T: Chunked> Drop for Gone<'_, T> {
            fn drop(&mut self) {
                self.0.state().helper_gone = true;
                self.0.done.notify_all();
            }
        }
        let _gone = Gone(self);
        let mut state = self.state();
        loop {
            if let Some(index) = state.round.claim() {
                let count = state.round.count;
                drop(state);
                let outcome = self.run(index, count);
                state = self.state();
                state.round.finish(index, outcome);
                self.done.notify_all();
            } else if let Some(job) = state.jobs.pop_front() {
                state.job_running = true;
                drop(state);
                let outcome = job();
                state = self.state();
                state.job_running = false;
                if let Err(e) = outcome {
                    state.job_error.get_or_insert(e);
                }
                self.done.notify_all();
            } else if state.closing {
                return;
            } else {
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// The coordinator's handle on a [`Board`], with or without a helper
/// thread serving it.
pub(crate) struct Worker<'b, T: Chunked> {
    board: &'b Board<T>,
    helper: bool,
}

/// Runs `body` with a worker on `board`: with `helper`, one scoped
/// helper thread serves the board until `body` returns and every queued
/// job has run; without, chunks and jobs run inline on the caller's
/// thread.
pub(crate) fn with_worker<T: Chunked, R>(
    board: &Board<T>,
    helper: bool,
    body: impl FnOnce(&Worker<'_, T>) -> R,
) -> R {
    if !helper {
        return body(&Worker {
            board,
            helper: false,
        });
    }
    /// Tells the helper the coordinator is done, also when `body`
    /// unwinds, so the scope's join never waits forever.
    struct Close<'b, T: Chunked>(&'b Board<T>);
    impl<T: Chunked> Drop for Close<'_, T> {
        fn drop(&mut self) {
            self.0.state().closing = true;
            self.0.wake.notify_all();
        }
    }
    std::thread::scope(|scope| {
        scope.spawn(|| board.serve());
        let _close = Close(board);
        body(&Worker {
            board,
            helper: true,
        })
    })
}

impl<T: Chunked> Worker<'_, T> {
    /// The task, for the coordinator to update between rounds.
    pub(crate) fn task_mut(&self) -> RwLockWriteGuard<'_, T> {
        self.board
            .task
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Every chunk's output buffer, in chunk order.
    pub(crate) fn outputs(&self) -> Vec<MutexGuard<'_, T::Output>> {
        self.board
            .outputs
            .iter()
            .map(|out| out.0.lock().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }

    /// Runs one round: every chunk of the board, on the coordinator and
    /// the helper alike. Returns once every chunk has run; the
    /// coordinator waits only for chunks the helper has started.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest failing chunk, whatever the
    /// claim order, or [`WorkerLost`] if the helper ended mid-chunk.
    pub(crate) fn run_chunks(&self) -> Result<(), T::Error> {
        let board = self.board;
        let count = board.outputs.len();
        if !self.helper {
            return (0..count).try_for_each(|index| board.run(index, count));
        }
        let mut state = board.state();
        state.round = Round {
            open: true,
            count,
            claimed: 0,
            finished: 0,
            error: None,
        };
        board.wake.notify_one();
        while let Some(index) = state.round.claim() {
            drop(state);
            let outcome = board.run(index, count);
            state = board.state();
            state.round.finish(index, outcome);
        }
        while state.round.finished < state.round.claimed && !state.helper_gone {
            state = board.wait_done(state);
        }
        state.round.open = false;
        if state.round.finished < state.round.claimed {
            return Err(WorkerLost.into());
        }
        match state.round.error.take() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Queues `job` behind every earlier one; without a helper, runs it
    /// now.
    ///
    /// # Errors
    ///
    /// Without a helper, the job's own error; with one, a job's error
    /// surfaces at the next [`Worker::wait_jobs`].
    pub(crate) fn submit(
        &self,
        job: impl FnOnce() -> Result<(), T::Error> + Send + 'static,
    ) -> Result<(), T::Error> {
        if !self.helper {
            return job();
        }
        self.board.state().jobs.push_back(Box::new(job));
        self.board.wake.notify_one();
        Ok(())
    }

    /// Blocks until every queued job has run.
    ///
    /// # Errors
    ///
    /// Returns the first failed job's error since the last call, or
    /// [`WorkerLost`] if the helper ended with jobs left.
    pub(crate) fn wait_jobs(&self) -> Result<(), T::Error> {
        let board = self.board;
        let mut state = board.state();
        while (state.job_running || !state.jobs.is_empty()) && !state.helper_gone {
            state = board.wait_done(state);
        }
        if let Some(e) = state.job_error.take() {
            return Err(e);
        }
        if state.job_running || !state.jobs.is_empty() {
            return Err(WorkerLost.into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [0, 1, 2, 4, 8] {
            let mut items: Vec<usize> = (0..16).collect();
            let out: Result<Vec<usize>, ()> = par_map(&mut items, threads, |index, item| {
                *item += 100;
                Ok(index * 10)
            });
            assert_eq!(out, Ok((0..16).map(|i| i * 10).collect()));
            assert_eq!(items, (100..116).collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_lowest_index_error_wins_for_any_thread_count() {
        for threads in [1, 2, 4, 8] {
            for _ in 0..50 {
                let out: Result<Vec<usize>, usize> =
                    par_map(&mut [(); 16], threads, |index, _| match index {
                        3 => {
                            // Let index 7 fail first whenever it can.
                            std::thread::yield_now();
                            Err(3)
                        }
                        7 => Err(7),
                        _ => Ok(index),
                    });
                assert_eq!(out, Err(3), "threads = {threads}");
            }
        }
    }

    /// A toy chunked task: chunk `index` writes `index * 10` and which
    /// thread ran it, after spinning for `delays[index]` yields; chunks
    /// named in `fail` fail with their index. With `hold` set, chunk 0
    /// first waits (up to a minute) until every other chunk has run on
    /// another thread than `hold`'s.
    #[derive(Default)]
    struct Toy {
        delays: Vec<usize>,
        fail: Vec<usize>,
        hold: Option<std::thread::ThreadId>,
        elsewhere: (Mutex<usize>, std::sync::Condvar),
    }

    #[derive(Debug, PartialEq)]
    enum ToyError {
        Chunk(usize),
        Job(&'static str),
        Lost,
    }

    impl From<WorkerLost> for ToyError {
        fn from(_: WorkerLost) -> Self {
            ToyError::Lost
        }
    }

    impl Chunked for Toy {
        type Output = Option<(usize, std::thread::ThreadId)>;
        type Error = ToyError;

        fn run_chunk(
            &self,
            index: usize,
            count: usize,
            out: &mut Self::Output,
        ) -> Result<(), ToyError> {
            let me = std::thread::current().id();
            if let Some(coordinator) = self.hold {
                let (ran, signal) = &self.elsewhere;
                if index == 0 {
                    let patience = std::time::Duration::from_secs(60);
                    let ran = ran.lock().unwrap();
                    drop(signal.wait_timeout_while(ran, patience, |n| *n < count - 1));
                } else if me != coordinator {
                    *ran.lock().unwrap() += 1;
                    signal.notify_all();
                }
            }
            for _ in 0..self.delays.get(index).copied().unwrap_or(0) {
                std::thread::yield_now();
            }
            if self.fail.contains(&index) {
                return Err(ToyError::Chunk(index));
            }
            *out = Some((index * 10, me));
            Ok(())
        }
    }

    fn values(worker: &Worker<'_, Toy>) -> Vec<usize> {
        worker
            .outputs()
            .iter()
            .map(|out| out.map_or(usize::MAX, |(v, _)| v))
            .collect()
    }

    #[test]
    fn chunk_outputs_come_back_in_chunk_order_for_any_interleaving() {
        let mut rng_state = 0x9e37_79b9_u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 200) as usize
        };
        let in_order: Vec<usize> = (0..8).map(|i| i * 10).collect();
        for helper in [false, true] {
            let board = Board::new(Toy::default(), 8);
            with_worker(&board, helper, |worker| {
                let me = std::thread::current().id();
                let ran_here = || {
                    worker
                        .outputs()
                        .iter()
                        .filter(|out| out.is_some_and(|(_, t)| t == me))
                        .count()
                };
                // Many rounds on one board: each with its own chunk
                // durations, so the claims interleave differently.
                for _ in 0..200 {
                    worker.task_mut().delays = (0..8).map(|_| next()).collect();
                    for out in worker.outputs().iter_mut() {
                        **out = None;
                    }
                    worker.run_chunks().unwrap();
                    assert_eq!(values(worker), in_order);
                    if !helper {
                        assert_eq!(ran_here(), 8);
                    }
                }
                if helper {
                    // The coordinator always claims chunk 0 first; held
                    // there, it leaves every other chunk to the helper.
                    worker.task_mut().hold = Some(me);
                    worker.run_chunks().unwrap();
                    assert_eq!(values(worker), in_order);
                    assert_eq!(ran_here(), 1);
                }
            });
        }
    }

    #[test]
    fn a_long_job_queued_first_does_not_delay_the_coordinator() {
        let board = Board::new(Toy::default(), 8);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let released = std::sync::Arc::new(AtomicBool::new(false));
        let seen = std::sync::Arc::clone(&released);
        with_worker(&board, true, |worker| {
            // The stand-in for a slow checkpoint save: it holds the
            // helper until the test releases it.
            worker
                .submit(move || {
                    let _ = started_tx.send(());
                    let _ = release_rx.recv_timeout(std::time::Duration::from_secs(60));
                    assert!(
                        seen.load(Ordering::SeqCst),
                        "released before the round ended"
                    );
                    Err(ToyError::Job("slow save"))
                })
                .unwrap();
            started_rx.recv().unwrap();
            worker.run_chunks().unwrap();
            // The round is done while the job still runs: every chunk ran
            // on the coordinator.
            let me = std::thread::current().id();
            assert!(worker
                .outputs()
                .iter()
                .all(|out| out.is_some_and(|(_, t)| t == me)));
            assert_eq!(values(worker), (0..8).map(|i| i * 10).collect::<Vec<_>>());
            released.store(true, Ordering::SeqCst);
            release_tx.send(()).unwrap();
            // The job's error surfaces once, at the wait.
            assert_eq!(worker.wait_jobs(), Err(ToyError::Job("slow save")));
            assert_eq!(worker.wait_jobs(), Ok(()));
        });
    }

    #[test]
    fn a_chunk_error_is_the_lowest_failing_index() {
        for helper in [false, true] {
            let board = Board::new(Toy::default(), 16);
            with_worker(&board, helper, |worker| {
                for round in 0..100 {
                    {
                        let mut toy = worker.task_mut();
                        // Let chunk 11 fail first whenever it can.
                        toy.delays = (0..16).map(|i| if i == 3 { 50 } else { 0 }).collect();
                        toy.fail = vec![3, 11];
                    }
                    assert_eq!(
                        worker.run_chunks(),
                        Err(ToyError::Chunk(3)),
                        "round {round}"
                    );
                    // The board stays usable after a failed round.
                    worker.task_mut().fail.clear();
                    worker.run_chunks().unwrap();
                }
            });
        }
    }

    #[test]
    fn jobs_run_in_submission_order_and_inline_without_a_helper() {
        for helper in [false, true] {
            let board = Board::new(Toy::default(), 1);
            let order = std::sync::Arc::new(Mutex::new(Vec::new()));
            with_worker(&board, helper, |worker| {
                for j in 0..20 {
                    let order = std::sync::Arc::clone(&order);
                    let outcome = worker.submit(move || {
                        order.lock().unwrap().push(j);
                        if j == 5 || j == 9 {
                            Err(ToyError::Job(if j == 5 { "five" } else { "nine" }))
                        } else {
                            Ok(())
                        }
                    });
                    // Inline, a job's error comes back at once.
                    if !helper {
                        assert_eq!(outcome.is_err(), j == 5 || j == 9);
                    }
                }
                if helper {
                    assert_eq!(worker.wait_jobs(), Err(ToyError::Job("five")));
                }
                assert_eq!(worker.wait_jobs(), Ok(()));
            });
            assert_eq!(*order.lock().unwrap(), (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    fn queued_jobs_finish_before_the_scope_ends() {
        let board = Board::new(Toy::default(), 1);
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        with_worker(&board, true, |worker| {
            for _ in 0..10 {
                let done = std::sync::Arc::clone(&done);
                worker
                    .submit(move || {
                        std::thread::yield_now();
                        done.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    })
                    .unwrap();
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 10);
    }
}
