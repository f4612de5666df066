//! Global work-stealing scheduler: one persistent worker pool executes
//! the cells of *every* concurrently submitted experiment, under a
//! per-job supervisor that retries and quarantines failures.
//!
//! [`scatter`] flattens a batch of independent jobs onto a process-wide
//! pool. Each batch is a shared slice with a lock-free [`AtomicUsize`]
//! claim cursor (a worker pulls the next job with one `fetch_add`, no
//! queue lock) and a batched result drop-off: a worker accumulates its
//! results privately and merges them under the batch lock once, when its
//! participation ends. Results are re-sorted by input index, so the
//! output is byte-identical no matter how many workers ran or how the
//! cursor interleaved — the same discipline the old per-call
//! `parallel_map` pool proved with the `RLPM_THREADS=1` vs `4` test.
//!
//! **Supervision.** A job that panics (or is killed by an armed
//! [`simkit::failpoint`] plan at the [`simkit::failpoint::SITE_SCHED_JOB`]
//! site) no longer aborts the whole sweep: the supervisor re-runs it up
//! to [`max_retries`] times with a bounded deterministic backoff, then
//! **quarantines** it — the panic payload and cell position are recorded
//! in the process-wide [`quarantine_report`], the job's result slot
//! stays empty, and every other cell of the batch still completes. The
//! submitting layer decides what an incomplete batch means (the
//! experiment tables treat it as a failed section; the run then exits
//! non-zero with the quarantine report).
//!
//! Unlike the old scoped pool, workers are **daemon threads shared by
//! the whole process**: several experiments (the `regen-tables` sections
//! run concurrently) feed batches into one queue, and every idle worker
//! steals from whichever batch still has unclaimed jobs — no
//! inter-experiment barrier. The submitting thread participates in its
//! own batch too, so `scatter` never deadlocks even if no worker thread
//! could be spawned, and a nested simulation that blocks on the
//! in-flight memoisation in [`crate::cache`] is always unblocked by the
//! worker computing that entry (memoised computations never wait on a
//! batch, so the wait graph stays acyclic).
//!
//! `RLPM_THREADS` caps the pool exactly as before: it is re-read on
//! every call, and a value of `1` keeps the batch off the pool entirely:
//! the submitting thread runs every job in place, through the *same*
//! supervisor and job context, so retry, quarantine and progress behave
//! identically at any thread count.
//!
//! **Job context.** A [`JobCtx`] scopes a batch's progress events and
//! quarantine records to whoever submitted it. `scatter` captures the
//! context installed on the submitting thread once per batch; every
//! completed job (quarantined ones included) sends one [`ProgressEvent`]
//! with the batch label and a live `done/total` to that context alone,
//! and a quarantined job's record lands in that context's sink as well
//! as in the process-wide report — on whichever thread ran the job. Each
//! event is sent before its batch completes, so a submitter that has
//! seen `scatter` return has been sent all of the batch's events. The
//! `rlpm-serve` front door installs one context per connection, whose
//! progress sender carries one request at a time, and opens a
//! quarantine sink per request, so concurrent clients never see each
//! other's events or quarantine.
//! Outside any context progress goes nowhere; either way the batch's
//! results are the same bits.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use simkit::obs::Counter;

/// Locks a mutex, recovering the guard if another worker panicked while
/// holding it. The critical sections in this module never panic, so a
/// poisoned lock still protects coherent data; job panics are caught per
/// job by the supervisor.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The worker count: `RLPM_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism.
pub(crate) fn thread_count() -> usize {
    let configured = std::env::var("RLPM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0);
    match configured {
        Some(t) => t,
        None => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4),
    }
}

/// `RLPM_THREADS` is process-wide; the unit tests that set it serialise
/// on this lock.
#[cfg(test)]
pub(crate) static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Default retry budget: a failing job runs at most `1 + 2` times.
pub const DEFAULT_MAX_RETRIES: u32 = 2;
/// First backoff step; doubles per retry up to [`BACKOFF_CAP_MS`].
const BACKOFF_BASE_MS: u64 = 5;
/// Upper bound on a single backoff sleep.
const BACKOFF_CAP_MS: u64 = 100;

/// Process-wide retry budget, set from `--max-retries`.
static MAX_RETRIES: AtomicU64 = AtomicU64::new(DEFAULT_MAX_RETRIES as u64);
/// Total job retries this process (for end-of-run reports).
static RETRIES: AtomicU64 = AtomicU64::new(0);
/// Quarantined jobs, appended as they are declared dead.
static QUARANTINE: Mutex<Vec<QuarantineRecord>> = Mutex::new(Vec::new());

/// Obs counter mirroring [`retry_count`].
static OBS_RETRIES: Counter = Counter::new("sched.retries");
/// Obs counter mirroring the quarantine report length.
static OBS_QUARANTINED: Counter = Counter::new("sched.quarantined");

/// Sets the per-job retry budget (`n` re-runs after the first failure).
pub fn set_max_retries(n: u32) {
    MAX_RETRIES.store(u64::from(n), Ordering::Relaxed); // xtask-atomics: plain config cell written once at startup; readers tolerate any interleaving
}

/// The current per-job retry budget.
pub fn max_retries() -> u32 {
    MAX_RETRIES.load(Ordering::Relaxed) as u32 // xtask-atomics: plain config cell; see set_max_retries
}

/// Total job retries performed by this process so far.
pub fn retry_count() -> u64 {
    RETRIES.load(Ordering::Relaxed) // xtask-atomics: statistics counter; reporting tolerates in-flight increments
}

/// Registers the supervisor's obs counters (zero-valued) so they appear
/// in a [`simkit::obs::MetricsSnapshot`] even before the first retry.
pub(crate) fn register_obs() {
    OBS_RETRIES.add(0);
    OBS_QUARANTINED.add(0);
}

/// One quarantined job: which batch and cell died, after how many
/// attempts, and with what panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The submitting batch's label (the experiment section, e.g. `e1`).
    pub batch: &'static str,
    /// The job's index within its batch — the cell position.
    pub index: usize,
    /// Total attempts made (first run plus retries).
    pub attempts: u32,
    /// The panic payload, rendered to a string.
    pub message: String,
}

impl fmt::Display for QuarantineRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quarantined {}[{}] after {} attempt(s): {}",
            self.batch, self.index, self.attempts, self.message
        )
    }
}

/// Sorts quarantine records by batch label then cell index, so a report
/// is deterministic regardless of worker interleaving.
fn sorted(mut records: Vec<QuarantineRecord>) -> Vec<QuarantineRecord> {
    records.sort_by(|a, b| (a.batch, a.index).cmp(&(b.batch, b.index)));
    records
}

/// A snapshot of every quarantined job so far, sorted by batch label
/// then cell index — deterministic regardless of worker interleaving.
pub fn quarantine_report() -> Vec<QuarantineRecord> {
    sorted(lock(&QUARANTINE).clone())
}

/// Clears the quarantine registry (one CLI invocation = one report).
pub fn clear_quarantine() {
    lock(&QUARANTINE).clear();
}

/// A run that completed but left quarantined cells behind; carries the
/// report length for exit-code decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineError {
    /// How many cells were quarantined.
    pub cells: usize,
}

impl fmt::Display for QuarantineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cell(s) quarantined after retries; results are incomplete",
            self.cells
        )
    }
}

impl std::error::Error for QuarantineError {}

/// One progress observation: `done` of `total` jobs of the batch
/// labelled `source` have finished (quarantined jobs count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressEvent {
    /// The batch's label (the experiment section, e.g. `e1`).
    pub source: &'static str,
    /// Jobs of the batch finished so far.
    pub done: u64,
    /// Jobs in the batch.
    pub total: u64,
}

/// Where a [`JobCtx`] sends its progress events.
type ProgressFn = dyn Fn(ProgressEvent) + Send + Sync;

/// A request-scoped job context: the progress sender and quarantine
/// sink that the batches submitted under it report to.
///
/// [`JobCtx::enter`] installs a context on the calling thread;
/// `scatter` captures the installed one once per batch, and every job
/// of that batch reports to it alone, whichever thread runs the job.
/// Workers install the batch's context while they run its jobs, so a
/// batch submitted from inside a job inherits it. Cloning shares the
/// sender and the sink.
#[derive(Clone, Default)]
pub struct JobCtx {
    progress: Option<Arc<ProgressFn>>,
    quarantine: Option<Arc<Mutex<Vec<QuarantineRecord>>>>,
}

thread_local! {
    /// The context [`JobCtx::enter`] installed on this thread.
    static CURRENT: RefCell<JobCtx> = const {
        RefCell::new(JobCtx {
            progress: None,
            quarantine: None,
        })
    };
}

impl JobCtx {
    /// The context installed on the calling thread; outside any, an
    /// empty one whose progress goes nowhere and whose quarantine
    /// records reach only the process-wide [`quarantine_report`].
    pub fn current() -> JobCtx {
        CURRENT.with_borrow(JobCtx::clone)
    }

    /// This context with its progress events sent to `send`, in place
    /// of any earlier sender. `send` runs on the thread that finished
    /// the job — often a scheduler worker — so it should only hand the
    /// event on, never block.
    pub fn with_progress(self, send: impl Fn(ProgressEvent) + Send + Sync + 'static) -> JobCtx {
        JobCtx {
            progress: Some(Arc::new(send)),
            ..self
        }
    }

    /// This context with a fresh, empty quarantine sink in place of any
    /// earlier one; read it back with [`JobCtx::quarantined`].
    pub fn with_quarantine_sink(self) -> JobCtx {
        JobCtx {
            quarantine: Some(Arc::new(Mutex::new(Vec::new()))),
            ..self
        }
    }

    /// The records this context's quarantine sink has collected, sorted
    /// by batch label then cell index (empty without a sink).
    pub fn quarantined(&self) -> Vec<QuarantineRecord> {
        self.quarantine
            .as_ref()
            .map_or_else(Vec::new, |sink| sorted(lock(sink).clone()))
    }

    /// Runs `f` with this context installed on the calling thread, and
    /// reinstalls the previous context when `f` returns or unwinds.
    pub fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        /// Reinstalls the outer context on drop.
        struct Restore(JobCtx);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.set(std::mem::take(&mut self.0));
            }
        }
        let _restore = Restore(CURRENT.replace(self));
        f()
    }

    fn send_progress(&self, event: ProgressEvent) {
        if let Some(send) = &self.progress {
            send(event);
        }
    }

    fn record_quarantine(&self, record: &QuarantineRecord) {
        if let Some(sink) = &self.quarantine {
            lock(sink).push(record.clone());
        }
    }
}

/// Renders a caught panic payload for the quarantine report.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Deterministic bounded backoff before retry `attempt` (1-based).
fn backoff_ms(attempt: u32) -> u64 {
    BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(8))
        .min(BACKOFF_CAP_MS)
}

/// Runs one job under the supervisor: consult the `sched/job` failpoint,
/// run, and on panic retry with backoff up to the process-wide budget.
/// A job that exhausts its budget is recorded in the quarantine registry
/// and returned as `Err`.
fn supervise<T, R, F>(
    label: &'static str,
    f: &F,
    item: &T,
    index: usize,
) -> Result<R, QuarantineRecord>
where
    T: Clone,
    F: Fn(T) -> R,
{
    let budget = max_retries();
    let mut attempt: u32 = 0;
    loop {
        let job = item.clone();
        // A panicking job must not take the pool down (daemon workers
        // are shared by unrelated experiments); the supervisor catches
        // it here, retries, and finally quarantines.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            simkit::failpoint::fire(simkit::failpoint::SITE_SCHED_JOB, index as u64);
            f(job)
        }));
        match outcome {
            Ok(result) => return Ok(result),
            Err(payload) => {
                if attempt >= budget {
                    let record = QuarantineRecord {
                        batch: label,
                        index,
                        attempts: attempt + 1,
                        message: panic_message(payload.as_ref()),
                    };
                    lock(&QUARANTINE).push(record.clone());
                    OBS_QUARANTINED.inc();
                    return Err(record);
                }
                attempt += 1;
                RETRIES.fetch_add(1, Ordering::Relaxed); // xtask-atomics: statistics counter; never synchronises job state
                OBS_RETRIES.inc();
                std::thread::sleep(Duration::from_millis(backoff_ms(attempt)));
            }
        }
    }
}

/// What [`scatter`] hands back: per-cell results in input order (`None`
/// marks a quarantined cell) plus this batch's quarantine records,
/// sorted by index.
pub(crate) struct BatchOutcome<R> {
    /// One slot per input item, `None` where the job was quarantined.
    pub results: Vec<Option<R>>,
    /// The quarantined jobs of *this* batch.
    pub quarantined: Vec<QuarantineRecord>,
}

/// A type-erased batch the pool's workers can participate in.
trait Task: Send + Sync {
    /// Claims and runs jobs until the batch's cursor is exhausted.
    fn participate(&self);
    /// Whether unclaimed jobs remain (used to prune the queue).
    fn has_pending(&self) -> bool;
}

/// Pending batches, oldest first. Workers steal from the front; a batch
/// leaves the queue once its cursor is exhausted (its last jobs may
/// still be running on the threads that claimed them).
static QUEUE: Mutex<Vec<Arc<dyn Task>>> = Mutex::new(Vec::new());
/// Wakes sleeping workers when a batch arrives.
static QUEUE_CV: Condvar = Condvar::new();
/// How many daemon workers have been spawned so far.
static SPAWNED: Mutex<usize> = Mutex::new(0);

/// Grows the daemon pool to at least `target` workers. Spawn failures
/// are swallowed: the submitting thread always participates, so a
/// smaller (even empty) pool only costs parallelism, never progress.
fn ensure_workers(target: usize) {
    let mut spawned = lock(&SPAWNED);
    while *spawned < target {
        let built = std::thread::Builder::new()
            .name("rlpm-sched".into())
            .spawn(worker_loop);
        if built.is_err() {
            break;
        }
        *spawned += 1;
    }
}

/// Daemon worker body: sleep until a batch has unclaimed jobs, help
/// drain it, prune exhausted batches, repeat forever.
fn worker_loop() {
    loop {
        let task: Arc<dyn Task> = {
            let mut queue = lock(&QUEUE);
            loop {
                queue.retain(|t| t.has_pending());
                if let Some(t) = queue.first() {
                    break Arc::clone(t);
                }
                queue = match QUEUE_CV.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        task.participate();
    }
}

/// Shared mutable state of one batch, guarded by a single lock that
/// doubles as the completion condvar's mutex.
struct BatchState<R> {
    /// Index-tagged results, in drop-off order.
    results: Vec<(usize, R)>,
    /// Jobs claimed *and* finished (counted per participation, after the
    /// drop-off, so `completed == len` implies the results are merged).
    /// Quarantined jobs count as finished.
    completed: usize,
    /// Quarantined jobs of this batch, in drop-off order.
    quarantined: Vec<QuarantineRecord>,
}

/// One `scatter` call: the job slice, its claim cursor and the shared
/// result state.
struct Batch<T, R, F> {
    /// The submitting experiment's label, carried into quarantine records.
    label: &'static str,
    /// The submitter's context, captured once; every job reports to it.
    ctx: JobCtx,
    /// Job slots; each is taken exactly once by the claiming worker.
    items: Vec<Mutex<Option<T>>>,
    /// Lock-free claim cursor: `fetch_add` hands out each index once.
    next: AtomicUsize,
    /// Jobs finished (quarantined ones included), counted as they
    /// complete so progress events carry a live `done/total`.
    finished: AtomicUsize,
    state: Mutex<BatchState<R>>,
    done: Condvar,
    f: F,
}

impl<T, R, F> Batch<T, R, F>
where
    T: Clone + Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    fn new(label: &'static str, ctx: JobCtx, items: Vec<T>, f: F) -> Self {
        Batch {
            label,
            ctx,
            items: items.into_iter().map(|i| Mutex::new(Some(i))).collect(),
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            state: Mutex::new(BatchState {
                results: Vec::new(),
                completed: 0,
                quarantined: Vec::new(),
            }),
            done: Condvar::new(),
            f,
        }
    }

    /// Claims jobs off the cursor until it runs out, then merges this
    /// thread's results in one drop-off and signals completion if this
    /// participation finished the batch.
    fn run_to_exhaustion(&self) {
        let n = self.items.len();
        let mut local: Vec<(usize, R)> = Vec::new();
        let mut local_quarantined: Vec<QuarantineRecord> = Vec::new();
        let mut claimed = 0usize;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed); // xtask-atomics: claim by atomic RMW; uniqueness comes from fetch_add itself, results merge under the batch mutex
            if i >= n {
                break;
            }
            claimed += 1;
            let Some(slot) = self.items.get(i) else {
                continue;
            };
            let Some(item) = lock(slot).take() else {
                continue;
            };
            match supervise(self.label, &self.f, &item, i) {
                Ok(result) => local.push((i, result)),
                Err(record) => {
                    self.ctx.record_quarantine(&record);
                    local_quarantined.push(record);
                }
            }
            // xtask-atomics: monotone completion count for progress events; result integrity comes from the batch mutex, not this counter
            let finished = self.finished.fetch_add(1, Ordering::Relaxed) + 1;
            // Sent before this participation's drop-off below, so before
            // the batch can complete.
            self.ctx.send_progress(ProgressEvent {
                source: self.label,
                done: finished as u64,
                total: n as u64,
            });
        }
        if claimed == 0 {
            return;
        }
        let mut state = lock(&self.state);
        state.results.append(&mut local);
        state.quarantined.append(&mut local_quarantined);
        state.completed += claimed;
        if state.completed >= n {
            self.done.notify_all();
        }
    }

    /// Blocks until every job has completed and its result is merged.
    fn wait(&self) -> BatchState<R> {
        let mut state = lock(&self.state);
        while state.completed < self.items.len() {
            state = match self.done.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        BatchState {
            results: std::mem::take(&mut state.results),
            completed: state.completed,
            quarantined: std::mem::take(&mut state.quarantined),
        }
    }
}

impl<T, R, F> Task for Batch<T, R, F>
where
    T: Clone + Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    fn participate(&self) {
        self.ctx.clone().enter(|| self.run_to_exhaustion());
    }

    fn has_pending(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.items.len() // xtask-atomics: advisory progress probe; a stale read only causes one extra claim attempt
    }
}

/// Assembles ordered per-slot results from index-tagged drop-offs.
fn assemble<R>(
    n: usize,
    tagged: Vec<(usize, R)>,
    mut quarantined: Vec<QuarantineRecord>,
) -> BatchOutcome<R> {
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in tagged {
        if let Some(slot) = results.get_mut(i) {
            *slot = Some(r);
        }
    }
    quarantined.sort_by_key(|q| q.index);
    debug_assert_eq!(
        results.iter().filter(|r| r.is_some()).count() + quarantined.len(),
        n,
        "every job either produces a result or a quarantine record"
    );
    BatchOutcome {
        results,
        quarantined,
    }
}

/// Applies `f` to every item on the global pool under the per-job
/// supervisor, returning per-slot results in input order (`None` where
/// a job was quarantined) plus this batch's quarantine records. The
/// calling thread participates, so this also works with zero pool
/// workers; with `RLPM_THREADS=1` (or a single item) it degenerates to
/// a sequential supervised map with no pool involvement. Progress and
/// quarantine go to the [`JobCtx`] installed on the calling thread.
///
/// Results are bit-identical across worker counts: jobs are independent,
/// index-tagged and re-sorted, and failpoint decisions are pure
/// functions of the cell index, exactly like the scoped pool this
/// replaces.
pub(crate) fn scatter<T, R, F>(label: &'static str, items: Vec<T>, f: F) -> BatchOutcome<R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    let batch = Arc::new(Batch::new(label, JobCtx::current(), items, f));
    let threads = thread_count().min(n);
    if threads > 1 {
        ensure_workers(threads - 1);
        let task: Arc<dyn Task> = Arc::clone(&batch) as Arc<dyn Task>;
        lock(&QUEUE).push(task);
        QUEUE_CV.notify_all();
    }
    batch.run_to_exhaustion();
    let state = batch.wait();
    assemble(n, state.results, state.quarantined)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwraps every slot; the callers below expect no quarantine.
    fn all<R>(outcome: BatchOutcome<R>) -> Vec<R> {
        assert!(outcome.quarantined.is_empty(), "unexpected quarantine");
        outcome.results.into_iter().flatten().collect()
    }

    #[test]
    fn preserves_order() {
        let out = all(scatter("t-order", (0..1000).collect(), |x: i32| x * 2));
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<i32> = all(scatter("t-empty", Vec::<i32>::new(), |x| x));
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(all(scatter("t-single", vec![7], |x: i32| x + 1)), vec![8]);
    }

    #[test]
    fn order_preserved_under_skewed_work() {
        // Later items finish first; merging must still restore order.
        let out = all(scatter("t-skew", (0..64).collect(), |x: u64| {
            std::thread::sleep(std::time::Duration::from_micros(64 - x));
            x * x
        }));
        assert_eq!(out, (0..64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_batches_share_the_pool() {
        // Two submitting threads feed the one queue at once; each batch
        // must still come back complete and ordered.
        let handles: Vec<_> = (0..2)
            .map(|offset: i64| {
                std::thread::spawn(move || {
                    all(scatter("t-conc", (0..256).collect(), move |x: i64| {
                        x + offset
                    }))
                })
            })
            .collect();
        for (offset, handle) in handles.into_iter().enumerate() {
            let out = handle.join().expect("batch thread");
            assert_eq!(out, (0..256).map(|x| x + offset as i64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn persistent_panic_is_quarantined_not_propagated() {
        let outcome = scatter("t-quarantine", (0..32).collect(), |x: u32| {
            assert!(x != 17, "boom at 17");
            x
        });
        // The batch completes: every other cell has its result.
        assert_eq!(outcome.results.len(), 32);
        assert!(outcome.results.get(17).is_some_and(Option::is_none));
        assert_eq!(
            outcome
                .results
                .iter()
                .filter(|result| result.is_some())
                .count(),
            31
        );
        // The dead cell is quarantined with its payload and attempts.
        assert_eq!(outcome.quarantined.len(), 1);
        let record = outcome.quarantined.first().expect("one record");
        assert_eq!((record.batch, record.index), ("t-quarantine", 17));
        assert_eq!(record.attempts, max_retries() + 1);
        assert!(record.message.contains("boom at 17"), "{}", record.message);
        // And reported process-wide, deterministically sorted.
        assert!(quarantine_report()
            .iter()
            .any(|r| r.batch == "t-quarantine" && r.index == 17));
        // The pool survives a quarantining batch.
        let out = all(scatter("t-survive", (0..32).collect(), |x: u32| x + 1));
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        use std::collections::BTreeMap;
        let attempts: Arc<Mutex<BTreeMap<u32, u32>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let seen = Arc::clone(&attempts);
        let before = retry_count();
        let outcome = scatter("t-retry", (0..8).collect(), move |x: u32| {
            let mut map = lock(&seen);
            let tries = map.entry(x).or_insert(0);
            *tries += 1;
            let first = *tries == 1;
            drop(map);
            assert!(!(x == 3 && first), "transient failure on first attempt");
            x * 10
        });
        assert!(outcome.quarantined.is_empty(), "retry must recover");
        let results: Vec<u32> = outcome.results.into_iter().flatten().collect();
        assert_eq!(results, (0..8).map(|x| x * 10).collect::<Vec<_>>());
        assert_eq!(lock(&attempts).get(&3), Some(&2), "cell 3 ran twice");
        assert!(retry_count() > before, "the retry was counted");
    }

    /// What one context saw of its batch: progress events and sink.
    struct Seen {
        events: Vec<ProgressEvent>,
        quarantined: Vec<QuarantineRecord>,
    }

    /// Submits a 16-job batch from a fresh thread under its own context.
    /// Job 0 waits on `in_flight`, so two such batches are in flight at
    /// once; `dead` names a cell that always panics.
    fn submit_under_ctx(
        label: &'static str,
        dead: Option<u32>,
        in_flight: &Arc<std::sync::Barrier>,
    ) -> std::thread::JoinHandle<Seen> {
        let in_flight = Arc::clone(in_flight);
        std::thread::spawn(move || {
            let events = Arc::new(Mutex::new(Vec::new()));
            let sent = Arc::clone(&events);
            let ctx = JobCtx::default()
                .with_progress(move |event| lock(&sent).push(event))
                .with_quarantine_sink();
            let outcome = ctx.clone().enter(|| {
                scatter(label, (0..16).collect(), move |x: u32| {
                    if x == 0 {
                        in_flight.wait();
                    }
                    assert!(Some(x) != dead, "boom at {x}");
                    x
                })
            });
            assert_eq!(
                outcome.results.iter().flatten().count(),
                16 - dead.iter().count()
            );
            // Every event was sent before `scatter` returned.
            let events = lock(&events).clone();
            Seen {
                events,
                quarantined: ctx.quarantined(),
            }
        })
    }

    #[test]
    fn each_context_receives_exactly_its_own_batch() {
        let _env = lock(&ENV_LOCK);
        for threads in ["1", "4"] {
            // Callers hold ENV_LOCK: no other test sets the variable.
            std::env::set_var("RLPM_THREADS", threads);
            let in_flight = Arc::new(std::sync::Barrier::new(2));
            let a = submit_under_ctx("t-ctx-a", Some(5), &in_flight);
            let b = submit_under_ctx("t-ctx-b", None, &in_flight);
            let (a, b) = (
                a.join().expect("batch a thread"),
                b.join().expect("batch b thread"),
            );
            for (label, seen) in [("t-ctx-a", &a), ("t-ctx-b", &b)] {
                assert!(
                    seen.events
                        .iter()
                        .all(|e| e.source == label && e.total == 16),
                    "{label} at {threads} thread(s) saw foreign events: {:?}",
                    seen.events
                );
                let mut done: Vec<u64> = seen.events.iter().map(|e| e.done).collect();
                done.sort_unstable();
                assert_eq!(done, (1..=16).collect::<Vec<_>>(), "{label} at {threads}");
            }
            assert_eq!(a.quarantined.len(), 1, "at {threads}: {:?}", a.quarantined);
            let record = a.quarantined.first().expect("one record");
            assert_eq!((record.batch, record.index), ("t-ctx-a", 5));
            assert!(
                b.quarantined.is_empty(),
                "at {threads}: {:?}",
                b.quarantined
            );
        }
        std::env::remove_var("RLPM_THREADS");
    }

    #[test]
    fn a_batch_submitted_inside_a_job_reports_to_the_same_context() {
        let _env = lock(&ENV_LOCK);
        // Callers hold ENV_LOCK: no other test sets the variable.
        std::env::set_var("RLPM_THREADS", "2");
        // Both outer jobs wait for each other, so one of them runs on a
        // pool worker rather than the submitting thread.
        let both_running = Arc::new(std::sync::Barrier::new(2));
        let events = Arc::new(Mutex::new(Vec::new()));
        let sent = Arc::clone(&events);
        JobCtx::default()
            .with_progress(move |event| lock(&sent).push(event.source))
            .enter(|| {
                all(scatter("t-outer", vec![0u32, 1], move |_| {
                    both_running.wait();
                    all(scatter("t-inner", (0..3).collect(), |x: u32| x)).len()
                }))
            });
        std::env::remove_var("RLPM_THREADS");
        let events = lock(&events).clone();
        let count = |label: &str| events.iter().filter(|&&source| source == label).count();
        assert_eq!(
            (count("t-outer"), count("t-inner"), events.len()),
            (2, 6, 8),
            "{events:?}"
        );
    }

    #[test]
    fn enter_reinstalls_the_outer_context_even_on_unwind() {
        let outer = JobCtx::default().with_quarantine_sink();
        let is_outer = |ctx: &JobCtx| match (&ctx.quarantine, &outer.quarantine) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        outer.clone().enter(|| {
            let inner = JobCtx::current().with_quarantine_sink();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                inner.enter(|| {
                    assert!(!is_outer(&JobCtx::current()), "inner is installed");
                    panic!("unwinds through enter");
                })
            }));
            assert!(unwound.is_err());
            assert!(is_outer(&JobCtx::current()), "outer is back");
        });
        assert!(JobCtx::current().quarantine.is_none(), "nothing installed");
    }

    #[test]
    fn backoff_is_bounded() {
        assert_eq!(backoff_ms(1), 5);
        assert_eq!(backoff_ms(2), 10);
        assert!((1..=64).all(|a| backoff_ms(a) <= BACKOFF_CAP_MS));
    }
}
