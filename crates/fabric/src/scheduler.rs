//! The multi-tenant scheduler: per-job frontiers, deficit-weighted lease
//! issuing, crash-safe lease accounting, and each job's live fold of acked
//! cells, which snapshots, reports and checkpoints read.
//!
//! The scheduler is a plain synchronous state machine — every method runs
//! under the fabric's one mutex, takes `now` as a parameter (so expiry is
//! unit-testable without sleeping), and never blocks.  Workers live in
//! `fabric.rs`; everything they do against shared state funnels through
//! here as three calls: [`Scheduler::next_lease`], [`Scheduler::ack`],
//! [`Scheduler::requeue_panic`].

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfi_controller::{CancelHandle, ProgressSnapshot, Workload};
use lfi_explore::{CrashCluster, ExplorationStore, FrontierCell, FunctionCoverage, OutcomeClass};
use lfi_scenario::FaultCell;
use lfi_store::{AckOutcome, AckRecord};

use crate::job::{JobCoverage, JobEvent, JobEventKind, JobId, JobReport, JobSnapshot, JobSpec, JobState};

/// How many events a job's ring buffer retains before the oldest fall off.
const EVENT_BUFFER_CAP: usize = 4096;

/// A worker that panics this many times on one job marks the job `Failed`.
const MAX_JOB_PANICS: u64 = 3;

/// The deterministic, cell-derived test-case name: stable across lease
/// re-issues, worker deaths and checkpoint restores, so reports and
/// clusters of an interrupted run are byte-identical to a clean one.
pub(crate) fn case_name(cell: &FaultCell) -> String {
    match cell.errno {
        Some(errno) => format!("{}-c{}-r{}-e{}", cell.function.as_str(), cell.call_ordinal, cell.retval, errno),
        None => format!("{}-c{}-r{}", cell.function.as_str(), cell.call_ordinal, cell.retval),
    }
}

/// One lease handed to a worker: a batch of cells plus everything needed to
/// run them without touching the scheduler.
pub(crate) struct LeaseAssignment {
    pub job: JobId,
    pub lease: u64,
    pub cells: Vec<FaultCell>,
    pub workload: Arc<dyn Workload>,
    pub seed: Option<u64>,
    pub halt_on_crash: bool,
}

/// Everything a worker reports when acking a lease: the transient event
/// stream and the durable ack, which is journaled as is.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeaseResult {
    pub events: Vec<JobEventKind>,
    pub ack: AckRecord,
}

/// A lease that has been issued but not acked.
struct OutstandingLease {
    cells: Vec<FaultCell>,
    deadline: Instant,
    cancel: Option<CancelHandle>,
}

/// Sequence-numbered ring buffer of a job's events.
#[derive(Default)]
struct EventBuffer {
    base: u64,
    buf: VecDeque<JobEvent>,
}

impl EventBuffer {
    fn push(&mut self, kind: JobEventKind) {
        let seq = self.base + self.buf.len() as u64;
        self.buf.push_back(JobEvent { seq, kind });
        while self.buf.len() > EVENT_BUFFER_CAP {
            self.buf.pop_front();
            self.base += 1;
        }
    }

    /// Events with `seq >= from`, capped at `max`; returns the cursor to
    /// pass next time.
    fn read(&self, from: u64, max: usize) -> (u64, Vec<JobEvent>) {
        let start = from.max(self.base);
        let offset = (start - self.base) as usize;
        let events: Vec<JobEvent> = self.buf.iter().skip(offset).take(max).cloned().collect();
        let next = events.last().map_or(start, |event| event.seq + 1);
        (next, events)
    }
}

/// A cell's place in checkpoint order: its sort key, with the errno itself
/// breaking the tie between no errno and `i64::MIN`.
type CellKey = (&'static str, u64, i64, Option<i64>);

fn cell_key(cell: &FaultCell) -> CellKey {
    (cell.function.as_str(), cell.call_ordinal, cell.retval, cell.errno)
}

/// A set of cells in checkpoint order.
type CellSet = BTreeMap<CellKey, FaultCell>;

fn cell_set<'a>(cells: impl IntoIterator<Item = &'a FaultCell>) -> CellSet {
    cells.into_iter().map(|cell| (cell_key(cell), *cell)).collect()
}

/// A job's outcome fold, kept in checkpoint form: [`JobFold::record`] folds
/// each newly executed cell in once, so snapshots, reports and checkpoints
/// read it without revisiting acked cells.
///
/// Clusters restored from a checkpoint keep their order and example.  A
/// cluster first seen after admit takes its smallest cell (by sort key) as
/// its example, and those clusters are ordered by example — so the fold is
/// the same whatever order the acks land in.
struct JobFold {
    /// The checkpoint minus its cell lists: header, counters, coverage and
    /// clusters.  Its `frontier`, `executed` and `unreached` stay empty.
    store: ExplorationStore,
    executed: CellSet,
    /// Skipped cells: the checkpoint's `unreached`.
    skipped: CellSet,
    /// How many leading clusters came from the restored checkpoint.
    restored_clusters: usize,
    crashes: u64,
    failures: u64,
}

impl JobFold {
    fn skip(&mut self, cells: &[FaultCell]) {
        self.skipped.extend(cell_set(cells));
    }

    /// Folds one acked outcome in; a cell that already ran is ignored.
    fn record(&mut self, outcome: AckOutcome) {
        let cell = outcome.cell;
        if self.executed.insert(cell_key(&cell), cell).is_some() {
            return;
        }
        let store = &mut self.store;
        store.cases_executed += 1;
        store.injections_performed += outcome.injections;
        if outcome.triggered {
            let index = match store.coverage.binary_search_by_key(&cell.function.as_str(), |(s, _)| s.as_str()) {
                Ok(index) => index,
                Err(index) => {
                    store.coverage.insert(index, (cell.function, FunctionCoverage::default()));
                    index
                }
            };
            store.coverage[index].1.triggered.insert((cell.call_ordinal, cell.retval, cell.errno));
        }
        match outcome.outcome {
            OutcomeClass::Success => return,
            OutcomeClass::Failure(_) => self.failures += 1,
            OutcomeClass::Crash(_) => {
                self.crashes += 1;
                store.crash_found = true;
            }
        }
        let clusters = &mut store.clusters;
        let cluster = match clusters.iter().position(|c| c.matches(cell.function, &outcome.stack, outcome.outcome)) {
            Some(index) => {
                clusters[index].count += 1;
                if index < self.restored_clusters || cell_key(&clusters[index].example) < cell_key(&cell) {
                    return;
                }
                let mut cluster = clusters.remove(index);
                cluster.example = cell;
                cluster.example_case = outcome.case;
                cluster
            }
            None => CrashCluster {
                function: cell.function,
                stack: outcome.stack,
                outcome: outcome.outcome,
                count: 1,
                example: cell,
                example_case: outcome.case,
            },
        };
        let new = &clusters[self.restored_clusters..];
        let at = self.restored_clusters + new.partition_point(|c| cell_key(&c.example) < cell_key(&cell));
        clusters.insert(at, cluster);
    }
}

/// One job's complete scheduler-side state.
struct JobRecord {
    spec: JobSpec,
    workload: Arc<dyn Workload>,
    state: JobState,
    frontier: VecDeque<FaultCell>,
    outstanding: HashMap<u64, OutstandingLease>,
    fold: JobFold,
    /// Cells leased cumulatively (re-issues count) — the `started` counter.
    started: u64,
    /// Deficit counter for weighted fairness; decremented when a lease's
    /// cells return unexecuted, so a crashed worker does not eat the job's
    /// fair share.
    issued: u64,
    requeued: u64,
    panics: u64,
    events: EventBuffer,
}

impl JobRecord {
    fn runnable(&self) -> bool {
        matches!(self.state, JobState::Queued | JobState::Running) && !self.frontier.is_empty()
    }

    /// The fairness key: cells issued normalized by weight, ties broken by
    /// job id at the call site.  Lower runs first.
    fn deficit(&self) -> u64 {
        self.issued.saturating_mul(1000) / u64::from(self.spec.weight.max(1))
    }

    fn set_state(&mut self, state: JobState) {
        if self.state != state {
            self.state = state;
            self.events.push(JobEventKind::State(state));
        }
    }

    /// Moves every pending frontier cell to the skipped set (cancel,
    /// crash-halt, repeated-panic failure).
    fn skip_frontier(&mut self) {
        while let Some(cell) = self.frontier.pop_front() {
            self.events.push(JobEventKind::Skipped { case: case_name(&cell) });
            self.fold.skip(&[cell]);
        }
    }

    /// Returns a lease's cells to the *front* of the frontier, preserving
    /// their order, and counts the requeue.
    fn requeue_cells(&mut self, cells: Vec<FaultCell>) {
        if cells.is_empty() {
            return;
        }
        self.requeued += cells.len() as u64;
        self.issued = self.issued.saturating_sub(cells.len() as u64);
        self.events.push(JobEventKind::Requeued { cells: cells.len() });
        for cell in cells.into_iter().rev() {
            self.frontier.push_front(cell);
        }
    }

    /// Done when nothing is pending and nothing is out on lease.
    fn maybe_complete(&mut self) {
        if self.state == JobState::Running && self.frontier.is_empty() && self.outstanding.is_empty() {
            self.set_state(JobState::Done);
        }
    }
}

/// The fabric's job table and lease book-keeping — see the module docs.
pub(crate) struct Scheduler {
    jobs: BTreeMap<u64, JobRecord>,
    next_job: u64,
    next_lease: u64,
    lease_deadline: Duration,
    default_lease_batch: usize,
}

impl Scheduler {
    pub fn new(default_lease_batch: usize, lease_deadline: Duration) -> Self {
        Self {
            jobs: BTreeMap::new(),
            next_job: 1,
            next_lease: 1,
            lease_deadline,
            default_lease_batch: default_lease_batch.max(1),
        }
    }

    /// Admits a job: enumerates the plan's deterministic cells in
    /// process-independent order, truncates at `max_cases`, and queues them
    /// as the frontier of a fresh checkpoint.
    pub fn submit(&mut self, spec: JobSpec, workload: Arc<dyn Workload>) -> JobId {
        let mut cells = spec.plan.compile().cells();
        cells.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        cells.dedup();
        if let Some(max) = spec.max_cases {
            cells.truncate(max);
        }
        let frontier = cells.into_iter().map(|cell| FrontierCell { cell, priority: 0 }).collect();
        self.submit_restored(spec, workload, &ExplorationStore { frontier, ..ExplorationStore::default() })
    }

    /// Admits a job resuming from a checkpoint: the store's frontier (in
    /// its scheduling order) is the pending work, and its executed/skipped/
    /// coverage/cluster state seeds the job's fold.  The checkpoint header
    /// follows the spec, not the store.
    pub fn submit_restored(&mut self, spec: JobSpec, workload: Arc<dyn Workload>, store: &ExplorationStore) -> JobId {
        let executed = cell_set(&store.executed);
        let skipped = cell_set(&store.unreached);
        let frontier: VecDeque<FaultCell> = store
            .frontier
            .iter()
            .map(|entry| entry.cell)
            .filter(|cell| !executed.contains_key(&cell_key(cell)))
            .collect();
        let crashes = store.clusters.iter().filter(|c| c.is_crash()).map(|c| c.count).sum();
        let mut coverage = store.coverage.clone();
        coverage.sort_by_key(|(symbol, _)| symbol.as_str());
        let fold = JobFold {
            store: ExplorationStore {
                seed: spec.plan.seed.unwrap_or(0),
                batch_size: spec.lease_batch.unwrap_or(self.default_lease_batch),
                parallelism: 1,
                halt_on_crash: spec.halt_on_crash,
                case_budget: spec.max_cases.map(|max| max as u64),
                universe: frontier.len() + executed.len() + skipped.len(),
                probe_done: true,
                crash_found: crashes > 0,
                cases_executed: executed.len() as u64,
                injections_performed: store.injections_performed,
                coverage,
                clusters: store.clusters.clone(),
                ..ExplorationStore::default()
            },
            restored_clusters: store.clusters.len(),
            crashes,
            failures: store.clusters.iter().filter(|c| !c.is_crash()).map(|c| c.count).sum(),
            executed,
            skipped,
        };
        let id = JobId(self.next_job);
        self.next_job += 1;
        let mut record = JobRecord {
            spec,
            workload,
            state: JobState::Queued,
            frontier,
            outstanding: HashMap::new(),
            fold,
            started: 0,
            issued: 0,
            requeued: 0,
            panics: 0,
            events: EventBuffer::default(),
        };
        record.events.push(JobEventKind::State(JobState::Queued));
        if record.frontier.is_empty() {
            record.set_state(JobState::Done);
        }
        self.jobs.insert(id.0, record);
        id
    }

    /// Issues the next lease, picking the runnable job with the smallest
    /// weighted deficit (ties to the lowest id) — the per-job fairness that
    /// keeps a 1000-case sweep from starving a 10-case smoke job.
    pub fn next_lease(&mut self, now: Instant) -> Option<LeaseAssignment> {
        let id = self
            .jobs
            .iter()
            .filter(|(_, record)| record.runnable())
            .min_by_key(|(id, record)| (record.deficit(), **id))
            .map(|(id, _)| *id)?;
        let record = self.jobs.get_mut(&id).expect("picked job exists");
        let batch = record.spec.lease_batch.unwrap_or(self.default_lease_batch).max(1);
        let cells: Vec<FaultCell> = (0..batch).map_while(|_| record.frontier.pop_front()).collect();
        record.started += cells.len() as u64;
        record.issued += cells.len() as u64;
        record.set_state(JobState::Running);
        let lease = self.next_lease;
        self.next_lease += 1;
        record.outstanding.insert(
            lease,
            OutstandingLease { cells: cells.clone(), deadline: now + self.lease_deadline, cancel: None },
        );
        Some(LeaseAssignment {
            job: JobId(id),
            lease,
            cells,
            workload: Arc::clone(&record.workload),
            seed: record.spec.plan.seed,
            halt_on_crash: record.spec.halt_on_crash,
        })
    }

    /// Attaches the campaign run's cancel handle to a lease, so a job
    /// cancel (or lease expiry) can stop the worker's in-flight run instead
    /// of letting it finish as a zombie.  Returns `false` — and fires
    /// nothing — when the lease is already stale; the caller should cancel
    /// its own run.
    pub fn attach_cancel(&mut self, job: JobId, lease: u64, handle: CancelHandle) -> bool {
        let Some(record) = self.jobs.get_mut(&job.0) else {
            return false;
        };
        let cancelled = record.state == JobState::Cancelled;
        match record.outstanding.get_mut(&lease) {
            Some(entry) => {
                if cancelled {
                    handle.cancel();
                }
                entry.cancel = Some(handle);
                true
            }
            None => false,
        }
    }

    /// Acks a lease: folds its outcomes in, requeues its skipped cells, and
    /// completes the job if this was the last outstanding work.  A stale
    /// ack — the lease already expired and was re-issued — is discarded
    /// wholesale (returns `false`), which is what makes re-execution safe:
    /// only the ack that still holds the lease counts.
    pub fn ack(&mut self, job: JobId, lease: u64, result: LeaseResult) -> bool {
        let Some(record) = self.jobs.get_mut(&job.0) else {
            return false;
        };
        if record.outstanding.remove(&lease).is_none() {
            return false;
        }
        record.panics = 0;
        for kind in result.events {
            record.events.push(kind);
        }
        let mut crash_halt = false;
        for outcome in result.ack.outcomes {
            crash_halt |= record.spec.halt_on_crash && outcome.outcome.is_crash();
            record.fold.record(outcome);
        }
        let skipped = result.ack.skipped;
        if record.state == JobState::Cancelled || record.state == JobState::Failed {
            record.fold.skip(&skipped);
        } else if crash_halt {
            record.fold.skip(&skipped);
            record.skip_frontier();
            record.set_state(JobState::Done);
        } else {
            record.requeue_cells(
                skipped.into_iter().filter(|c| !record.fold.executed.contains_key(&cell_key(c))).collect(),
            );
        }
        record.maybe_complete();
        true
    }

    /// Replays a journaled lease acknowledgement during recovery (with no
    /// events: replay rebuilds durable state, not the event ring):
    /// synthesizes the outstanding lease the journal entry implies (its
    /// cells leave the frontier exactly as the live issue removed them) and
    /// folds the result through [`Scheduler::ack`] — the same body, so a
    /// recovered job steps through the very states the live job did.
    /// Replaying acks in journal order reproduces the live frontier even
    /// when concurrent workers acked out of issue order, because requeues
    /// always go to the *front* in ack order.
    pub fn replay_ack(&mut self, job: JobId, ack: AckRecord) -> bool {
        let lease = self.next_lease;
        self.next_lease += 1;
        let Some(record) = self.jobs.get_mut(&job.0) else {
            return false;
        };
        let mut leased: Vec<FaultCell> = Vec::with_capacity(ack.outcomes.len() + ack.skipped.len());
        leased.extend(ack.outcomes.iter().map(|outcome| outcome.cell));
        leased.extend(ack.skipped.iter().copied());
        for cell in &leased {
            if let Some(position) = record.frontier.iter().position(|c| c == cell) {
                record.frontier.remove(position);
            }
        }
        record.started += leased.len() as u64;
        record.issued += leased.len() as u64;
        if record.state == JobState::Queued {
            record.set_state(JobState::Running);
        }
        record
            .outstanding
            .insert(lease, OutstandingLease { cells: leased, deadline: Instant::now(), cancel: None });
        self.ack(job, lease, LeaseResult { events: Vec::new(), ack })
    }

    /// A worker died (panicked) holding a lease: every cell of the lease
    /// goes back to the front of the job's frontier — nothing the dead
    /// worker half-did was acked, so nothing can be double-counted.  A job
    /// that kills its workers repeatedly is marked `Failed`.
    pub fn requeue_panic(&mut self, job: JobId, lease: u64) -> bool {
        let Some(record) = self.jobs.get_mut(&job.0) else {
            return false;
        };
        let Some(entry) = record.outstanding.remove(&lease) else {
            return false;
        };
        record.panics += 1;
        if record.state.is_terminal() {
            record.fold.skip(&entry.cells);
            return true;
        }
        record.requeue_cells(entry.cells);
        if record.panics >= MAX_JOB_PANICS {
            record.skip_frontier();
            record.set_state(JobState::Failed);
        }
        record.maybe_complete();
        true
    }

    /// Expires every lease whose deadline has passed: its cells return to
    /// the front of the owning job's frontier and a late ack becomes stale.
    /// Returns how many leases expired.
    pub fn expire(&mut self, now: Instant) -> usize {
        let mut expired = 0;
        for record in self.jobs.values_mut() {
            let lapsed: Vec<u64> = record
                .outstanding
                .iter()
                .filter(|(_, lease)| lease.deadline <= now)
                .map(|(id, _)| *id)
                .collect();
            for id in lapsed {
                let lease = record.outstanding.remove(&id).expect("lapsed lease exists");
                if let Some(handle) = lease.cancel {
                    handle.cancel();
                }
                if record.state.is_terminal() {
                    record.fold.skip(&lease.cells);
                } else {
                    record.requeue_cells(lease.cells);
                }
                expired += 1;
            }
        }
        expired
    }

    /// Cancels a job: pending cells are counted skipped, in-flight leases
    /// are cancelled through their campaign handles (their cells surface as
    /// lease-skipped and join the skipped set at ack).  Idempotent — like
    /// [`CancelHandle::cancel`], a repeat or a cancel of a terminal job
    /// changes nothing.
    pub fn cancel(&mut self, job: JobId) -> Option<JobState> {
        let record = self.jobs.get_mut(&job.0)?;
        if record.state.is_terminal() {
            return Some(record.state);
        }
        record.skip_frontier();
        record.set_state(JobState::Cancelled);
        for lease in record.outstanding.values() {
            if let Some(handle) = &lease.cancel {
                handle.cancel();
            }
        }
        Some(record.state)
    }

    /// Pauses a job: outstanding leases finish, no new lease is issued.
    pub fn pause(&mut self, job: JobId) -> Option<JobState> {
        let record = self.jobs.get_mut(&job.0)?;
        if matches!(record.state, JobState::Queued | JobState::Running) {
            record.set_state(JobState::Paused);
        }
        Some(record.state)
    }

    /// Resumes a paused job.
    pub fn resume(&mut self, job: JobId) -> Option<JobState> {
        let record = self.jobs.get_mut(&job.0)?;
        if record.state == JobState::Paused {
            record.set_state(JobState::Running);
            record.maybe_complete();
        }
        Some(record.state)
    }

    pub fn snapshot(&self, job: JobId) -> Option<JobSnapshot> {
        let record = self.jobs.get(&job.0)?;
        let fold = &record.fold;
        Some(JobSnapshot {
            id: job,
            name: record.spec.name.clone(),
            workload: record.spec.workload.clone(),
            state: record.state,
            cases: fold.store.universe,
            pending: record.frontier.len(),
            outstanding: record.outstanding.values().map(|l| l.cells.len()).sum(),
            progress: ProgressSnapshot {
                started: record.started as usize,
                finished: fold.executed.len(),
                skipped: fold.skipped.len(),
                crashes: fold.crashes as usize,
                injections: fold.store.injections_performed as usize,
            },
            requeued: record.requeued,
            clusters: fold.store.clusters.len(),
        })
    }

    pub fn snapshots(&self) -> Vec<JobSnapshot> {
        self.jobs.keys().filter_map(|id| self.snapshot(JobId(*id))).collect()
    }

    pub fn state(&self, job: JobId) -> Option<JobState> {
        self.jobs.get(&job.0).map(|record| record.state)
    }

    pub fn events(&self, job: JobId, from: u64, max: usize) -> Option<(u64, Vec<JobEvent>)> {
        self.jobs.get(&job.0).map(|record| record.events.read(from, max))
    }

    /// Serializes a job's complete state as an [`ExplorationStore`] — the
    /// crash-safe handoff format: the job's fold, plus its pending cells
    /// followed by its outstanding leases' cells (in lease order) as the
    /// frontier.
    pub fn checkpoint(&self, job: JobId) -> Option<ExplorationStore> {
        let record = self.jobs.get(&job.0)?;
        let mut lease_ids: Vec<u64> = record.outstanding.keys().copied().collect();
        lease_ids.sort_unstable();
        let leased = lease_ids.iter().flat_map(|id| &record.outstanding[id].cells);
        Some(ExplorationStore {
            frontier: record
                .frontier
                .iter()
                .chain(leased)
                .map(|cell| FrontierCell { cell: *cell, priority: 0 })
                .collect(),
            executed: record.fold.executed.values().copied().collect(),
            unreached: record.fold.skipped.values().copied().collect(),
            ..record.fold.store.clone()
        })
    }

    /// The job's coverage/cluster report, read from the same fold as
    /// [`Scheduler::checkpoint`].
    pub fn report(&self, job: JobId) -> Option<JobReport> {
        let record = self.jobs.get(&job.0)?;
        let fold = &record.fold;
        Some(JobReport {
            id: job,
            name: record.spec.name.clone(),
            state: record.state,
            coverage: JobCoverage {
                universe: fold.store.universe,
                executed: fold.executed.len(),
                triggered: fold.store.coverage.iter().map(|(_, f)| f.triggered.len()).sum(),
                crashes: fold.crashes as usize,
                failures: fold.failures as usize,
                skipped: fold.skipped.len(),
            },
            clusters: fold.store.clusters.clone(),
        })
    }

    pub fn reports(&self) -> Vec<JobReport> {
        self.jobs.keys().filter_map(|id| self.report(JobId(*id))).collect()
    }

    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.keys().map(|id| JobId(*id)).collect()
    }

    /// True when no job can make further progress: every job terminal (or
    /// paused with nothing in flight) and no lease outstanding.
    pub fn quiescent(&self) -> bool {
        self.jobs.values().all(|record| {
            (record.state.is_terminal() || record.state == JobState::Paused) && record.outstanding.is_empty()
        })
    }

    /// Fires the cancel handle of every outstanding lease (fabric
    /// shutdown), so in-flight campaign runs stop at their next case
    /// boundary.
    pub fn cancel_outstanding(&mut self) {
        for record in self.jobs.values_mut() {
            for lease in record.outstanding.values() {
                if let Some(handle) = &lease.cancel {
                    handle.cancel();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_controller::FnWorkload;
    use lfi_intern::Symbol;
    use lfi_runtime::ExitStatus;
    use lfi_runtime::{Process, Signal};
    use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    use proptest::prelude::*;

    fn noop_workload() -> Arc<dyn Workload> {
        FnWorkload::shared("noop", Process::new, |_| ExitStatus::Exited(0))
    }

    fn plan_with_cells(function: &str, ordinals: std::ops::RangeInclusive<u64>) -> Plan {
        let mut plan = Plan::new();
        for ordinal in ordinals {
            plan = plan.entry(PlanEntry {
                function: function.into(),
                trigger: Trigger::on_call(ordinal),
                action: FaultAction::return_value(-1).with_errno(5),
            });
        }
        plan
    }

    fn success_result(cells: &[FaultCell]) -> LeaseResult {
        let outcomes = cells
            .iter()
            .map(|cell| AckOutcome {
                cell: *cell,
                outcome: OutcomeClass::Success,
                injections: 1,
                triggered: true,
                stack: Vec::new(),
                case: case_name(cell),
            })
            .collect();
        LeaseResult { events: Vec::new(), ack: AckRecord { outcomes, skipped: Vec::new() } }
    }

    fn skipped_result(cells: &[FaultCell]) -> LeaseResult {
        LeaseResult { events: Vec::new(), ack: AckRecord { outcomes: Vec::new(), skipped: cells.to_vec() } }
    }

    #[test]
    fn deficit_fairness_alternates_between_equal_weight_jobs() {
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let now = Instant::now();
        let big = sched.submit(JobSpec::new("big", "noop", plan_with_cells("read", 1..=100)), noop_workload());
        let small = sched.submit(JobSpec::new("small", "noop", plan_with_cells("write", 1..=8)), noop_workload());
        // Tie at zero deficit goes to the lower id, then strict alternation
        // until the small job's 8 cells are exhausted (two leases of 4) —
        // after which only the big job issues.
        let order: Vec<JobId> = (0..6).map(|_| sched.next_lease(now).unwrap().job).collect();
        assert_eq!(order, vec![big, small, big, small, big, big]);
        assert_eq!(sched.snapshot(small).unwrap().pending, 0);
    }

    #[test]
    fn weighted_jobs_get_proportional_leases() {
        let mut sched = Scheduler::new(2, Duration::from_secs(60));
        let now = Instant::now();
        let light = sched.submit(JobSpec::new("light", "noop", plan_with_cells("read", 1..=40)), noop_workload());
        let heavy =
            sched.submit(JobSpec::new("heavy", "noop", plan_with_cells("write", 1..=40)).weight(2), noop_workload());
        let picks: Vec<JobId> = (0..9).map(|_| sched.next_lease(now).unwrap().job).collect();
        let heavy_picks = picks.iter().filter(|id| **id == heavy).count();
        let light_picks = picks.iter().filter(|id| **id == light).count();
        assert_eq!(heavy_picks, 6, "weight-2 job gets ~2/3 of leases: {picks:?}");
        assert_eq!(light_picks, 3);
    }

    #[test]
    fn expired_lease_requeues_cells_and_late_ack_is_stale() {
        let mut sched = Scheduler::new(4, Duration::from_secs(10));
        let base = Instant::now();
        let job = sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=4)), noop_workload());
        let lease = sched.next_lease(base).unwrap();
        assert_eq!(lease.cells.len(), 4);
        assert_eq!(sched.snapshot(job).unwrap().outstanding, 4);

        // Nothing expires before the deadline.
        assert_eq!(sched.expire(base + Duration::from_secs(9)), 0);
        assert_eq!(sched.expire(base + Duration::from_secs(11)), 1);
        let snapshot = sched.snapshot(job).unwrap();
        assert_eq!(snapshot.outstanding, 0);
        assert_eq!(snapshot.pending, 4, "expired cells return to the frontier");
        assert_eq!(snapshot.requeued, 4);

        // The zombie worker's late ack is discarded wholesale.
        assert!(!sched.ack(job, lease.lease, success_result(&lease.cells)));
        assert_eq!(sched.snapshot(job).unwrap().progress.finished, 0);

        // The re-issued lease preserves the original cell order.
        let reissued = sched.next_lease(base + Duration::from_secs(12)).unwrap();
        assert_eq!(reissued.cells, lease.cells);
        assert!(sched.ack(job, reissued.lease, success_result(&reissued.cells)));
        let snapshot = sched.snapshot(job).unwrap();
        assert_eq!(snapshot.state, JobState::Done);
        assert_eq!(snapshot.progress.finished, 4, "each cell counted exactly once");
    }

    #[test]
    fn repeated_panics_fail_the_job() {
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let now = Instant::now();
        let job = sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=4)), noop_workload());
        for round in 0..MAX_JOB_PANICS {
            let lease = sched.next_lease(now).unwrap();
            assert!(sched.requeue_panic(job, lease.lease), "round {round}");
        }
        let snapshot = sched.snapshot(job).unwrap();
        assert_eq!(snapshot.state, JobState::Failed);
        assert_eq!(snapshot.pending, 0);
        assert_eq!(snapshot.progress.skipped, 4, "failed job accounts for every cell");
        assert!(sched.next_lease(now).is_none());
        // A successful ack resets the panic streak.
        let job2 = sched.submit(JobSpec::new("job2", "noop", plan_with_cells("write", 1..=8)), noop_workload());
        let lease = sched.next_lease(now).unwrap();
        sched.requeue_panic(job2, lease.lease);
        let lease = sched.next_lease(now).unwrap();
        assert!(sched.ack(job2, lease.lease, success_result(&lease.cells)));
        let lease = sched.next_lease(now).unwrap();
        sched.requeue_panic(job2, lease.lease);
        assert_eq!(sched.state(job2), Some(JobState::Running), "streak was reset by the ack");
    }

    #[test]
    fn cancel_skips_pending_and_is_idempotent() {
        let mut sched = Scheduler::new(2, Duration::from_secs(60));
        let now = Instant::now();
        let job = sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=6)), noop_workload());
        let lease = sched.next_lease(now).unwrap();
        assert_eq!(sched.cancel(job), Some(JobState::Cancelled));
        assert_eq!(sched.cancel(job), Some(JobState::Cancelled), "double cancel is a no-op");
        assert!(sched.next_lease(now).is_none(), "cancelled job issues no leases");
        // The in-flight lease comes back with its cells skipped mid-run.
        assert!(sched.ack(job, lease.lease, skipped_result(&lease.cells)));
        let snapshot = sched.snapshot(job).unwrap();
        assert_eq!(snapshot.progress.skipped, 6);
        assert_eq!(snapshot.pending + snapshot.outstanding, 0);
        assert!(sched.quiescent());
    }

    #[test]
    fn pause_withholds_leases_and_resume_restores_them() {
        let mut sched = Scheduler::new(2, Duration::from_secs(60));
        let now = Instant::now();
        let job = sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=4)), noop_workload());
        assert_eq!(sched.pause(job), Some(JobState::Paused));
        assert!(sched.next_lease(now).is_none());
        assert!(sched.quiescent(), "paused with nothing in flight is quiescent");
        assert_eq!(sched.resume(job), Some(JobState::Running));
        assert!(sched.next_lease(now).is_some());
    }

    #[test]
    fn crash_halt_completes_job_and_skips_remainder() {
        let mut sched = Scheduler::new(2, Duration::from_secs(60));
        let now = Instant::now();
        let job =
            sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=6)).halt_on_crash(), noop_workload());
        let lease = sched.next_lease(now).unwrap();
        let mut result = success_result(&lease.cells[..1]);
        result.ack.outcomes[0].outcome = OutcomeClass::Crash(lfi_runtime::Signal::Segv);
        result.ack.skipped = lease.cells[1..].to_vec();
        assert!(sched.ack(job, lease.lease, result));
        let snapshot = sched.snapshot(job).unwrap();
        assert_eq!(snapshot.state, JobState::Done);
        assert_eq!(snapshot.progress.finished, 1);
        assert_eq!(snapshot.progress.skipped, 5);
        assert_eq!(snapshot.clusters, 1);
    }

    #[test]
    fn checkpoint_restores_into_equivalent_job() {
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let now = Instant::now();
        let spec = JobSpec::new("sweep", "noop", plan_with_cells("read", 1..=12));
        let job = sched.submit(spec.clone(), noop_workload());
        let first = sched.next_lease(now).unwrap();
        assert!(sched.ack(job, first.lease, success_result(&first.cells)));
        // Take a mid-run checkpoint: one lease outstanding, one acked.
        let second = sched.next_lease(now).unwrap();
        let store = sched.checkpoint(job).unwrap();
        assert_eq!(store.cases_executed, 4);
        assert_eq!(store.frontier.len(), 8, "pending plus outstanding cells");
        assert_eq!(store.universe, 12);
        let reloaded = lfi_store::decode_exploration_store(&lfi_store::encode_exploration_store(&store)).unwrap();
        assert_eq!(reloaded, store);
        drop(second);

        // A fresh scheduler resumes from the checkpoint and finishes.
        let mut resumed = Scheduler::new(4, Duration::from_secs(60));
        let job2 = resumed.submit_restored(spec, noop_workload(), &reloaded);
        let mut acked = 0;
        while let Some(lease) = resumed.next_lease(now) {
            acked += lease.cells.len();
            assert!(resumed.ack(job2, lease.lease, success_result(&lease.cells)));
        }
        assert_eq!(acked, 8, "only the unexecuted cells re-run");
        let report = resumed.report(job2).unwrap();
        assert_eq!(report.state, JobState::Done);
        assert_eq!(report.coverage.universe, 12);
        assert_eq!(report.coverage.executed, 12, "union coverage spans both halves");
        assert_eq!(report.coverage.triggered, 12);
        let final_store = resumed.checkpoint(job2).unwrap();
        assert_eq!(final_store.executed.len(), 12);
        assert!(final_store.frontier.is_empty());
    }

    #[test]
    fn replayed_acks_in_journal_order_reconstruct_the_live_fold() {
        // Live run: two concurrent leases acked out of issue order — the
        // second lease comes back fully skipped (its cells requeue to the
        // front), then the first lands successfully.
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let now = Instant::now();
        let spec = JobSpec::new("job", "noop", plan_with_cells("read", 1..=12));
        let job = sched.submit(spec.clone(), noop_workload());
        let initial = sched.checkpoint(job).unwrap();
        let first = sched.next_lease(now).unwrap();
        let second = sched.next_lease(now).unwrap();
        let skip_second = skipped_result(&second.cells);
        assert!(sched.ack(job, second.lease, skip_second.clone()));
        assert!(sched.ack(job, first.lease, success_result(&first.cells)));
        let live = sched.checkpoint(job).unwrap();

        // Recovery: restore from the submit-time snapshot, then replay the
        // two acks in the order they were journaled.
        let mut replayed = Scheduler::new(4, Duration::from_secs(60));
        let job2 = replayed.submit_restored(spec, noop_workload(), &initial);
        assert!(replayed.replay_ack(job2, skip_second.ack));
        assert!(replayed.replay_ack(job2, success_result(&first.cells).ack));
        assert_eq!(replayed.checkpoint(job2).unwrap(), live, "replay reproduces frontier order and done set");
        assert_eq!(replayed.snapshot(job2).unwrap().progress.finished, 4);
        assert!(!replayed.replay_ack(JobId(99), AckRecord::default()), "unknown job replays nothing");
    }

    #[test]
    fn empty_plan_job_is_immediately_done() {
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let job = sched.submit(JobSpec::new("empty", "noop", Plan::new()), noop_workload());
        assert_eq!(sched.state(job), Some(JobState::Done));
        assert!(sched.next_lease(Instant::now()).is_none());
        let (next, events) = sched.events(job, 0, 16).unwrap();
        assert_eq!(next, 2);
        assert_eq!(events[0].kind, JobEventKind::State(JobState::Queued));
        assert_eq!(events[1].kind, JobEventKind::State(JobState::Done));
        // Reading past the end leaves the cursor in place.
        let (next, rest) = sched.events(job, next, 16).unwrap();
        assert_eq!(next, 2);
        assert!(rest.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Leases of a 24-cell, two-function plan return random outcomes
        /// (success, two exit codes and a crash, under three stacks, so
        /// several clusters form); acking them in two random orders folds
        /// to the same checkpoint bytes and the same report.
        #[test]
        fn the_fold_ignores_ack_order(
            cases in prop::collection::vec((0u8..4, 0usize..3), 24),
            batch in 1usize..6,
            first in prop::collection::vec(any::<u64>(), 24),
            second in prop::collection::vec(any::<u64>(), 24),
        ) {
            let stacks = [Vec::new(), vec![Symbol::intern("main"), Symbol::intern("read")], vec![Symbol::intern("log")]];
            let outcome_of = |cell: &FaultCell| {
                let index = cell.call_ordinal as usize - 1 + if cell.function.as_str() == "write" { 12 } else { 0 };
                let (class, stack) = cases[index];
                AckOutcome {
                    cell: *cell,
                    outcome: match class {
                        0 => OutcomeClass::Success,
                        1 => OutcomeClass::Failure(1),
                        2 => OutcomeClass::Failure(2),
                        _ => OutcomeClass::Crash(Signal::Segv),
                    },
                    injections: u64::from(stack > 0),
                    triggered: stack > 0,
                    stack: stacks[stack].clone(),
                    case: case_name(cell),
                }
            };
            let run = |keys: &[u64]| {
                let mut sched = Scheduler::new(batch, Duration::from_secs(60));
                let mut plan = plan_with_cells("read", 1..=12);
                plan.entries.extend(plan_with_cells("write", 1..=12).entries);
                let job = sched.submit(JobSpec::new("job", "noop", plan), noop_workload());
                let mut leases = Vec::new();
                while let Some(lease) = sched.next_lease(Instant::now()) {
                    leases.push(lease);
                }
                let mut order: Vec<usize> = (0..leases.len()).collect();
                order.sort_by_key(|&index| keys[index]);
                for index in order {
                    let lease = &leases[index];
                    let outcomes = lease.cells.iter().map(outcome_of).collect();
                    let ack = AckRecord { outcomes, skipped: Vec::new() };
                    assert!(sched.ack(job, lease.lease, LeaseResult { events: Vec::new(), ack }));
                }
                assert_eq!(sched.state(job), Some(JobState::Done));
                (lfi_store::encode_exploration_store(&sched.checkpoint(job).unwrap()), sched.report(job).unwrap())
            };
            let (first_bytes, first_report) = run(&first);
            let (second_bytes, second_report) = run(&second);
            prop_assert_eq!(first_report.coverage.executed, 24);
            prop_assert_eq!(first_bytes, second_bytes);
            prop_assert_eq!(first_report, second_report);
        }
    }
}
