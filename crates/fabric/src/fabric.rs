//! The fabric runtime: a shared worker fleet pulling case leases from the
//! [`Scheduler`], the public [`Fabric`]/[`FabricHandle`] surface, and the
//! per-lease bridge onto the existing [`Campaign`] machinery.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lfi_controller::{Campaign, CaseEvent, ExecutionPolicy, TestCase, Workload, WorkloadRegistry};
use lfi_explore::{CrashCluster, ExplorationStore, OutcomeClass};
use lfi_scenario::Plan;
use lfi_store::{AckOutcome, AckRecord, Journal, Record, StoreError};

use crate::job::{JobEvent, JobEventKind, JobId, JobReport, JobSnapshot, JobSpec, JobState};
use crate::scheduler::{case_name, LeaseAssignment, LeaseResult, Scheduler};

/// Default number of cells per lease.
pub const DEFAULT_LEASE_BATCH: usize = 8;

/// Default deadline before an unacked lease returns to its job's frontier.
pub const DEFAULT_LEASE_DEADLINE: Duration = Duration::from_secs(60);

/// How long an idle worker parks before re-checking deadlines and flags.
const WORKER_PARK: Duration = Duration::from_millis(25);

/// Ack records a job's journal accumulates before an append compacts it
/// back into a single fresh checkpoint snapshot.
const JOURNAL_COMPACT_EVERY: u64 = 32;

/// Errors surfaced by fabric requests.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FabricError {
    /// The submitted spec names a workload the registry does not hold.
    UnknownWorkload {
        /// The name that failed to resolve.
        name: String,
    },
    /// The request named a job id the fabric does not know.
    UnknownJob {
        /// The unresolved id.
        job: JobId,
    },
    /// A journal file could not be created, recovered or replayed.
    Journal {
        /// The journal path involved.
        path: PathBuf,
        /// The underlying store error, rendered.
        message: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownWorkload { name } => write!(f, "no workload registered under {name:?}"),
            FabricError::UnknownJob { job } => write!(f, "no job with id {job}"),
            FabricError::Journal { path, message } => write!(f, "journal {}: {message}", path.display()),
        }
    }
}

impl std::error::Error for FabricError {}

/// Shared state of one fabric: the scheduler under its mutex, the workload
/// registry, and the condition variables the fleet parks on.
struct FabricInner {
    sched: Mutex<Scheduler>,
    registry: Mutex<WorkloadRegistry>,
    /// Per-job write-ahead ack journals (`lfi-store` files).  Lock order:
    /// `sched` strictly before `journals` — every acquisition of this mutex
    /// happens while `sched` is held, so append/compact can never interleave
    /// with a checkpoint of a half-acked state.
    journals: Mutex<HashMap<u64, JobJournal>>,
    /// Signalled when new work may be available (submit, ack, resume).
    work: Condvar,
    /// Signalled after every ack, for `wait_idle`/`wait_job` pollers.
    idle: Condvar,
    draining: AtomicBool,
    shutdown: AtomicBool,
}

/// Locks a `std::sync` mutex, riding through poisoning: the scheduler's
/// invariants hold between method calls, and a worker panic is already
/// contained by `catch_unwind`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl FabricInner {
    fn notify(&self) {
        self.work.notify_all();
        self.idle.notify_all();
    }
}

/// One job's open ack journal plus its health.  A persistence failure
/// mid-run is recorded here — workers never panic over journal IO — and
/// surfaced through [`FabricHandle::journal_error`].
struct JobJournal {
    journal: Journal,
    error: Option<StoreError>,
}

/// Appends one ack to `job`'s journal, if it has one, compacting back to a
/// fresh checkpoint snapshot every [`JOURNAL_COMPACT_EVERY`] acks.  Called
/// with the scheduler lock held (see the lock-order note on
/// [`FabricInner::journals`]) so the ack landing in the scheduler and the
/// ack landing in the journal are one atomic step.  IO failures park the
/// journal in an error state instead of panicking the worker.
fn journal_append(inner: &FabricInner, sched: &Scheduler, job: JobId, ack: AckRecord) {
    let mut journals = lock(&inner.journals);
    let Some(entry) = journals.get_mut(&job.0) else {
        return;
    };
    if entry.error.is_some() {
        return;
    }
    let appended = entry.journal.append(&Record::Ack(ack)).and_then(|()| {
        if entry.journal.appended() < JOURNAL_COMPACT_EVERY {
            return Ok(());
        }
        match sched.checkpoint(job) {
            Some(store) => entry.journal.compact(&Record::ExplorationSnapshot(store)),
            None => Ok(()),
        }
    });
    if let Err(error) = appended {
        entry.error = Some(error);
    }
}

/// Builder for a [`Fabric`]: fleet size, lease parameters and the shared
/// workload registry.
pub struct FabricBuilder {
    workers: usize,
    lease_batch: usize,
    lease_deadline: Duration,
    registry: WorkloadRegistry,
}

impl Default for FabricBuilder {
    fn default() -> Self {
        Self {
            workers: 2,
            lease_batch: DEFAULT_LEASE_BATCH,
            lease_deadline: DEFAULT_LEASE_DEADLINE,
            registry: WorkloadRegistry::new(),
        }
    }
}

impl FabricBuilder {
    /// A builder with the defaults: two workers, batch
    /// [`DEFAULT_LEASE_BATCH`], deadline [`DEFAULT_LEASE_DEADLINE`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Size of the shared worker fleet.  `0` builds an inert fabric that
    /// accepts and checkpoints jobs but executes nothing — useful for
    /// staging work to hand to another fabric.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Default cells per lease for jobs that do not set their own
    /// [`JobSpec::lease_batch`].
    pub fn lease_batch(mut self, cells: usize) -> Self {
        self.lease_batch = cells.max(1);
        self
    }

    /// Deadline before an unacked lease is declared lost and its cells
    /// return to the owning job's frontier.
    pub fn lease_deadline(mut self, deadline: Duration) -> Self {
        self.lease_deadline = deadline;
        self
    }

    /// Replaces the fabric's workload registry wholesale.
    pub fn registry(mut self, registry: WorkloadRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers one workload (last registration wins, like the registry).
    pub fn register(mut self, workload: impl Workload + 'static) -> Self {
        self.registry.register(workload);
        self
    }

    /// Registers an already-shared workload.
    pub fn register_arc(mut self, workload: Arc<dyn Workload>) -> Self {
        self.registry.register_arc(workload);
        self
    }

    /// Spawns the worker fleet and returns the running fabric.
    pub fn build(self) -> Fabric {
        let inner = Arc::new(FabricInner {
            sched: Mutex::new(Scheduler::new(self.lease_batch, self.lease_deadline)),
            registry: Mutex::new(self.registry),
            journals: Mutex::new(HashMap::new()),
            work: Condvar::new(),
            idle: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..self.workers)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("lfi-fabric-{worker}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("fabric worker thread spawns")
            })
            .collect();
        Fabric { handle: FabricHandle { inner }, workers }
    }
}

/// A running campaign fabric: the owner of the worker fleet.  Dereferences
/// to [`FabricHandle`] for the whole request surface; [`Fabric::drain`]
/// shuts the fleet down cleanly and returns the final job reports.
pub struct Fabric {
    handle: FabricHandle,
    workers: Vec<JoinHandle<()>>,
}

impl Fabric {
    /// Starts configuring a fabric.
    pub fn builder() -> FabricBuilder {
        FabricBuilder::new()
    }

    /// A clonable, sendable handle to this fabric (what servers and other
    /// threads hold).
    pub fn handle(&self) -> FabricHandle {
        self.handle.clone()
    }

    /// Stops accepting useful work, lets the fleet finish every runnable
    /// job, joins the workers, and returns the final reports in job-id
    /// order.
    pub fn drain(mut self) -> Vec<JobReport> {
        self.handle.begin_drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        lock(&self.handle.inner.sched).reports()
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        self.handle.inner.shutdown.store(true, Ordering::Release);
        lock(&self.handle.inner.sched).cancel_outstanding();
        self.handle.inner.notify();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::ops::Deref for Fabric {
    type Target = FabricHandle;

    fn deref(&self) -> &FabricHandle {
        &self.handle
    }
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric").field("workers", &self.workers.len()).finish()
    }
}

/// A clonable handle to a fabric: submit jobs, observe them, cancel them.
/// All methods are safe to call from any thread, including wire-protocol
/// server threads.
#[derive(Clone)]
pub struct FabricHandle {
    inner: Arc<FabricInner>,
}

impl FabricHandle {
    /// Registers a workload with the fabric's shared registry.
    pub fn register(&self, workload: impl Workload + 'static) {
        lock(&self.inner.registry).register(workload);
    }

    /// Registers an already-shared workload.
    pub fn register_arc(&self, workload: Arc<dyn Workload>) {
        lock(&self.inner.registry).register_arc(workload);
    }

    /// The registered workload names, sorted.
    pub fn workload_names(&self) -> Vec<String> {
        lock(&self.inner.registry).names().map(str::to_owned).collect()
    }

    fn resolve(&self, spec: &JobSpec) -> Result<Arc<dyn Workload>, FabricError> {
        lock(&self.inner.registry)
            .get(&spec.workload)
            .ok_or_else(|| FabricError::UnknownWorkload { name: spec.workload.clone() })
    }

    /// Submits a job; its plan's deterministic cells become the frontier.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownWorkload`] when the spec's workload name is
    /// not registered.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, FabricError> {
        let workload = self.resolve(&spec)?;
        let id = lock(&self.inner.sched).submit(spec, workload);
        self.inner.notify();
        Ok(id)
    }

    /// Submits a job resuming from a checkpoint taken by
    /// [`FabricHandle::checkpoint`] (possibly in another process): the
    /// store's frontier is the pending work, its executed state is carried
    /// over, and no carried-over cell is re-executed.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownWorkload`] when the spec's workload name is
    /// not registered.
    pub fn submit_restored(&self, spec: JobSpec, store: &ExplorationStore) -> Result<JobId, FabricError> {
        let workload = self.resolve(&spec)?;
        let id = lock(&self.inner.sched).submit_restored(spec, workload, store);
        self.inner.notify();
        Ok(id)
    }

    /// Snapshots of every job, in id order.
    pub fn jobs(&self) -> Vec<JobSnapshot> {
        lock(&self.inner.sched).snapshots()
    }

    /// A point-in-time snapshot of one job.
    pub fn status(&self, job: JobId) -> Option<JobSnapshot> {
        lock(&self.inner.sched).snapshot(job)
    }

    /// The job's buffered events with `seq >= from` (at most `max`), plus
    /// the cursor to pass on the next poll.  The buffer is a ring: a very
    /// slow poller may miss events that have already fallen off.
    pub fn events(&self, job: JobId, from: u64, max: usize) -> Option<(u64, Vec<JobEvent>)> {
        lock(&self.inner.sched).events(job, from, max)
    }

    /// Cancels a job (idempotent): pending cells are skipped, in-flight
    /// leases are cancelled through their campaign handles.
    pub fn cancel(&self, job: JobId) -> Option<JobState> {
        let state = lock(&self.inner.sched).cancel(job);
        self.inner.notify();
        state
    }

    /// Pauses a job: outstanding leases finish, no new lease is issued.
    pub fn pause(&self, job: JobId) -> Option<JobState> {
        let state = lock(&self.inner.sched).pause(job);
        self.inner.notify();
        state
    }

    /// Resumes a paused job.
    pub fn resume(&self, job: JobId) -> Option<JobState> {
        let state = lock(&self.inner.sched).resume(job);
        self.inner.notify();
        state
    }

    /// Serializes the job's complete state as an [`ExplorationStore`] (the
    /// crash-safe handoff format) — pending and leased cells in the
    /// frontier, plus the job's fold of acked cells, coverage and clusters,
    /// which does not depend on ack order.
    pub fn checkpoint(&self, job: JobId) -> Option<ExplorationStore> {
        lock(&self.inner.sched).checkpoint(job)
    }

    /// Attaches a write-ahead journal to `job` at `path`: the file opens
    /// with the job's full checkpoint snapshot, and from then on every
    /// acked lease appends one O(lease) ack record — so keeping the job
    /// recoverable costs the delta, not a full re-checkpoint.  The journal
    /// compacts itself back to a single fresh snapshot periodically.
    ///
    /// [`FabricHandle::recover_job`] in a later process replays the file
    /// back into an equivalent job.  Journaling from submission (before the
    /// first lease) makes recovery byte-identical to a live checkpoint;
    /// attaching mid-run inherits the same contract as
    /// [`checkpoint`](FabricHandle::checkpoint) +
    /// [`submit_restored`](FabricHandle::submit_restored).
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownJob`] for an unknown id;
    /// [`FabricError::Journal`] when the file cannot be created.
    pub fn journal_job(&self, job: JobId, path: impl AsRef<Path>) -> Result<(), FabricError> {
        let path = path.as_ref();
        // Hold the scheduler lock across snapshot + registration so no ack
        // can land between the checkpoint and the journal starting.
        let sched = lock(&self.inner.sched);
        let store = sched.checkpoint(job).ok_or(FabricError::UnknownJob { job })?;
        let journal = Journal::create(path, &Record::ExplorationSnapshot(store))
            .map_err(|error| FabricError::Journal { path: path.to_path_buf(), message: error.to_string() })?;
        lock(&self.inner.journals).insert(job.0, JobJournal { journal, error: None });
        drop(sched);
        Ok(())
    }

    /// Recovers a job from a journal written by
    /// [`FabricHandle::journal_job`] — typically in a previous process that
    /// was killed mid-run.  The journal's durable tail (a torn final append
    /// is truncated) is replayed: the leading snapshot seeds the job via
    /// the restore path, then every ack record folds through the same
    /// scheduler transition the live ack took.  The recovered job continues
    /// journaling to the same file.
    ///
    /// Cells that were leased but never acked at kill time are still in
    /// the frontier — they were never durably executed, so they run again.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownWorkload`] when the spec's workload name is
    /// not registered; [`FabricError::Journal`] when the file cannot be
    /// read or is not a fabric job journal.
    pub fn recover_job(&self, spec: JobSpec, path: impl AsRef<Path>) -> Result<JobId, FabricError> {
        let path = path.as_ref();
        let journal_error = |message: String| FabricError::Journal { path: path.to_path_buf(), message };
        let workload = self.resolve(&spec)?;
        let (journal, records) = Journal::open(path).map_err(|error| journal_error(error.to_string()))?;
        let mut records = records.into_iter();
        let snapshot = match records.next() {
            Some(Record::ExplorationSnapshot(store)) => store,
            _ => return Err(journal_error("journal does not start with an exploration snapshot".into())),
        };
        let mut acks = Vec::new();
        for record in records {
            match record {
                Record::Ack(ack) => acks.push(ack),
                _ => return Err(journal_error("foreign record kind in job journal".into())),
            }
        }
        let mut sched = lock(&self.inner.sched);
        let job = sched.submit_restored(spec, workload, &snapshot);
        for ack in acks {
            sched.replay_ack(job, ack);
        }
        lock(&self.inner.journals).insert(job.0, JobJournal { journal, error: None });
        drop(sched);
        self.inner.notify();
        Ok(job)
    }

    /// The error that stopped `job`'s journal, if journaling broke mid-run
    /// (rendered; the journal stops appending after its first failure).
    /// `None` for jobs without a journal or with a healthy one.
    pub fn journal_error(&self, job: JobId) -> Option<String> {
        let sched = lock(&self.inner.sched);
        let journals = lock(&self.inner.journals);
        let error = journals.get(&job.0).and_then(|entry| entry.error.as_ref().map(ToString::to_string));
        drop(sched);
        error
    }

    /// The job's coverage/cluster report (valid mid-run; final once the
    /// job is terminal).
    pub fn report(&self, job: JobId) -> Option<JobReport> {
        lock(&self.inner.sched).report(job)
    }

    /// All job reports, in id order.
    pub fn reports(&self) -> Vec<JobReport> {
        lock(&self.inner.sched).reports()
    }

    /// The ids of every submitted job, in order.
    pub fn job_ids(&self) -> Vec<JobId> {
        lock(&self.inner.sched).job_ids()
    }

    /// Flags the fabric as draining: workers finish every runnable job and
    /// then exit.  The [`Fabric`] owner joins them via [`Fabric::drain`];
    /// wire-protocol clients trigger this through the `drain` request.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
        self.inner.notify();
    }

    /// True once [`FabricHandle::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Blocks until no job can make further progress (all terminal or
    /// paused, nothing leased), or until `timeout` elapses.  Returns
    /// whether quiescence was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut sched = lock(&self.inner.sched);
        loop {
            if sched.quiescent() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let wait = (deadline - now).min(WORKER_PARK);
            sched = self
                .inner
                .idle
                .wait_timeout(sched, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Blocks until `job` reaches a terminal state (returning it), or until
    /// `timeout` elapses (returning the current state; `None` for an
    /// unknown job).
    pub fn wait_job(&self, job: JobId, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut sched = lock(&self.inner.sched);
        loop {
            let state = sched.state(job)?;
            if state.is_terminal() {
                return Some(state);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(state);
            }
            let wait = (deadline - now).min(WORKER_PARK);
            sched = self
                .inner
                .idle
                .wait_timeout(sched, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

impl fmt::Debug for FabricHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FabricHandle").field("draining", &self.is_draining()).finish()
    }
}

/// One worker of the fleet: pull a lease from any runnable job, run it as a
/// single-threaded campaign, ack (or, if the workload killed us, let the
/// scheduler requeue the lease).  The `catch_unwind` is the crash-safety
/// boundary: a panicking workload takes down its lease, never the fleet.
fn worker_loop(inner: &FabricInner) {
    loop {
        let assignment = {
            let mut sched = lock(&inner.sched);
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                sched.expire(Instant::now());
                if let Some(assignment) = sched.next_lease(Instant::now()) {
                    break assignment;
                }
                if inner.draining.load(Ordering::Acquire) && sched.quiescent() {
                    return;
                }
                sched = inner
                    .work
                    .wait_timeout(sched, WORKER_PARK)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        };
        let (job, lease) = (assignment.job, assignment.lease);
        let result = catch_unwind(AssertUnwindSafe(|| run_lease(inner, assignment)));
        {
            let mut sched = lock(&inner.sched);
            match result {
                Ok(result) => {
                    // Copy the ack before acking (the ack consumes the
                    // result), but only journal what the scheduler actually
                    // counted: a stale ack must not reach the journal either.
                    let ack = lock(&inner.journals).contains_key(&job.0).then(|| result.ack.clone());
                    if sched.ack(job, lease, result) {
                        if let Some(ack) = ack {
                            journal_append(inner, &sched, job, ack);
                        }
                    }
                }
                Err(_) => {
                    sched.requeue_panic(job, lease);
                }
            };
        }
        inner.notify();
    }
}

/// Runs one lease's cells as a `parallelism(1)` campaign over the job's
/// workload (the fabric's fleet *is* the parallelism) and folds the event
/// stream into the ack payload.
fn run_lease(inner: &FabricInner, assignment: LeaseAssignment) -> LeaseResult {
    let cells = assignment.cells;
    let cases: Vec<TestCase> = cells
        .iter()
        .map(|cell| TestCase::new(case_name(cell), Plan { entries: vec![cell.plan_entry()], seed: assignment.seed }))
        .collect();
    let mut policy = ExecutionPolicy::run_all();
    if assignment.halt_on_crash {
        policy = policy.stop_on_first_crash();
    }
    let run = Campaign::new().cases(cases).policy(policy).parallelism(1).start_arc(assignment.workload);
    // Hand the run's cancel handle to the scheduler so a job cancel (or a
    // lease expiry) stops this run at its next case boundary.  If the lease
    // already went stale, stop immediately — the work would be discarded.
    let handle = run.cancel_handle();
    if !lock(&inner.sched).attach_cancel(assignment.job, assignment.lease, handle.clone()) {
        handle.cancel();
    }

    let mut result = LeaseResult::default();
    for event in run {
        match event {
            CaseEvent::Started { name, .. } => {
                result.events.push(JobEventKind::Started { case: name });
            }
            CaseEvent::Injection { index, record } => {
                result.events.push(JobEventKind::Injection {
                    case: case_name(&cells[index]),
                    function: record.function_name().to_owned(),
                    retval: record.retval,
                    errno: record.errno,
                });
            }
            CaseEvent::Outcome { index, outcome } => {
                let class = OutcomeClass::of(outcome.status);
                let injections = outcome.injection_count();
                result
                    .events
                    .push(JobEventKind::Finished { case: outcome.name.clone(), outcome: class, injections });
                result.ack.outcomes.push(AckOutcome {
                    cell: cells[index],
                    outcome: class,
                    injections: injections as u64,
                    triggered: injections > 0,
                    stack: CrashCluster::stack_of(&outcome),
                    case: outcome.name,
                });
            }
            CaseEvent::Skipped { index, name, .. } => {
                result.events.push(JobEventKind::Skipped { case: name });
                result.ack.skipped.push(cells[index]);
            }
        }
    }
    result
}
