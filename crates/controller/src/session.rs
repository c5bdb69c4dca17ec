//! The streaming campaign session: [`Campaign::start`] returns a
//! [`CampaignRun`] — an iterator of [`CaseEvent`]s — instead of blocking
//! until every case has finished.
//!
//! The thread that drives the session is one of its workers: pulling the
//! iterator claims and executes cases inline, so a `parallelism(1)` session
//! spawns no thread.  `parallelism(n)` adds n−1 helper threads that run the
//! same claim and execute steps and stream their events over a bounded
//! channel.
//!
//! [`Campaign::start`]: crate::Campaign::start

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::{Campaign, CampaignObserver, CampaignReport, Injector, TestCase, TestOutcome, Workload};

/// One incremental event from a running campaign session.
///
/// `index` is the case's position in the scheduled case list (the list the
/// campaign was built with, truncated by `ExecutionPolicy::max_cases`), so
/// events of concurrent cases can be correlated.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseEvent {
    /// A worker claimed the case and is about to set it up.
    Started {
        /// Position in the scheduled case list.
        index: usize,
        /// The test case's name.
        name: String,
    },
    /// One injection performed during the case.  Injection events are
    /// reported *after* the case's workload finishes (the log is drained
    /// post-hoc, exactly like the [`CampaignObserver::on_injection`] hook),
    /// in log order, immediately before the case's `Outcome` event.
    Injection {
        /// Position in the scheduled case list.
        index: usize,
        /// The recorded injection.
        record: crate::InjectionRecord,
    },
    /// The case finished; this is the last event the case emits.
    Outcome {
        /// Position in the scheduled case list.
        index: usize,
        /// The case's full outcome (status, log, replay script).
        outcome: TestOutcome,
    },
    /// The case was scheduled but never executed.
    Skipped {
        /// Position in the scheduled case list.
        index: usize,
        /// The test case's name.
        name: String,
        /// Why the case never ran.
        reason: SkipReason,
    },
}

impl CaseEvent {
    /// The scheduled-case index this event belongs to.
    pub fn index(&self) -> usize {
        match self {
            CaseEvent::Started { index, .. }
            | CaseEvent::Injection { index, .. }
            | CaseEvent::Outcome { index, .. }
            | CaseEvent::Skipped { index, .. } => *index,
        }
    }
}

/// Why a scheduled case never executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// [`CancelHandle::cancel`] stopped the run (or the session was dropped
    /// mid-stream).
    Cancelled,
    /// `ExecutionPolicy::stop_on_first_crash` halted the run after an
    /// earlier case crashed.
    CrashHalt,
    /// The campaign-wide injection budget was exhausted.
    BudgetExhausted,
    /// The workload's [`Workload::health_check`] vetoed the prepared
    /// process.
    Unhealthy,
}

// Stop reasons in the shared atomic (0 = still running).
const REASON_NONE: u8 = 0;
const REASON_CANCELLED: u8 = 1;
const REASON_CRASH: u8 = 2;
const REASON_BUDGET: u8 = 3;

/// A clonable handle that cancels a [`CampaignRun`]: no further case is
/// claimed, cases already in flight finish and are reported, and every
/// never-executed case surfaces as a `Skipped` event (and in
/// [`CampaignReport::cases_skipped`]).
#[derive(Clone)]
pub struct CancelHandle {
    shared: Arc<RunShared>,
}

impl CancelHandle {
    /// Requests cancellation.  Takes effect at the next case boundary on
    /// every worker.
    ///
    /// **Idempotency contract** (services that cancel a run from several
    /// paths — a user request, a crash-halt policy, a lease expiry — rely on
    /// this): `cancel` may be called any number of times, from any thread,
    /// at any point in the run's life.  Repeated calls are no-ops — the
    /// first stop reason to arrive wins, and no additional `Skipped` events
    /// or skip counts are produced by later calls.  Calling `cancel` after
    /// the run has drained (or after [`CampaignRun::into_report`] consumed
    /// it) is equally a no-op: the handle only flips a shared atomic, so a
    /// late cancel can never panic, double-count a skip tail, or disturb the
    /// already-produced report.
    pub fn cancel(&self) {
        self.shared.halt(REASON_CANCELLED);
    }

    /// True once the run is stopping (for any reason, not only
    /// cancellation).
    pub fn is_stopping(&self) -> bool {
        self.shared.stop_reason.load(Ordering::Acquire) != REASON_NONE
    }
}

impl std::fmt::Debug for CancelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelHandle").field("stopping", &self.is_stopping()).finish()
    }
}

/// Live progress counters of a [`CampaignRun`], read from shared atomics —
/// safe to poll from any thread while the run streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunProgress {
    /// Cases scheduled (after `max_cases` truncation).
    pub cases: usize,
    /// Cases a worker has claimed so far.
    pub started: usize,
    /// Cases that ran to an outcome.
    pub finished: usize,
    /// Cases skipped (health-check vetoes plus never-claimed cases counted
    /// once the stream drains).
    pub skipped: usize,
    /// Finished cases whose workload crashed.
    pub crashes: usize,
    /// Injections performed across all finished cases.
    pub injections: usize,
}

/// The five execution counters of a run as one plain value — what a status
/// RPC or a progress line actually wants, without the [`RunProgress::cases`]
/// denominator (which is configuration, not progress) and without
/// hand-assembling five atomic loads at every call site.  Produced by
/// [`RunProgress::snapshot`] / [`CampaignRun::snapshot`]; aggregators (like
/// the `lfi-fabric` job service) fold per-lease runs into one of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Cases a worker has claimed so far.
    pub started: usize,
    /// Cases that ran to an outcome.
    pub finished: usize,
    /// Cases skipped (health-check vetoes plus never-claimed cases counted
    /// once the stream drains).
    pub skipped: usize,
    /// Finished cases whose workload crashed.
    pub crashes: usize,
    /// Injections performed across all finished cases.
    pub injections: usize,
}

impl RunProgress {
    /// The execution counters as a plain [`ProgressSnapshot`].
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            started: self.started,
            finished: self.finished,
            skipped: self.skipped,
            crashes: self.crashes,
            injections: self.injections,
        }
    }
}

/// State shared between the session handle, its helpers and cancel handles.
struct RunShared {
    cases: Vec<TestCase>,
    observers: Vec<Arc<dyn CampaignObserver>>,
    stop_on_first_crash: bool,
    capture_calls: bool,
    budget: Option<Arc<AtomicUsize>>,
    /// Claims are always the prefix `[0, next)` of `cases` (`next` may run
    /// past the end), so the never-claimed cases are `next..cases.len()`.
    next: AtomicUsize,
    stop_reason: AtomicU8,
    started: AtomicUsize,
    finished: AtomicUsize,
    skipped: AtomicUsize,
    crashes: AtomicUsize,
    injections: AtomicUsize,
}

impl RunShared {
    /// Flags the run as stopping; the first reason to arrive wins (it labels
    /// the synthesized `Skipped` events).
    fn halt(&self, reason: u8) {
        let _ = self
            .stop_reason
            .compare_exchange(REASON_NONE, reason, Ordering::AcqRel, Ordering::Acquire);
    }

    fn skip_reason(&self) -> SkipReason {
        match self.stop_reason.load(Ordering::Acquire) {
            REASON_CRASH => SkipReason::CrashHalt,
            REASON_BUDGET => SkipReason::BudgetExhausted,
            _ => SkipReason::Cancelled,
        }
    }

    /// The one claim step of every worker: unless the run is stopping,
    /// takes the next case and returns its `Started` event.
    fn claim(&self) -> Option<CaseEvent> {
        if self.stop_reason.load(Ordering::Acquire) != REASON_NONE {
            return None;
        }
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        let case = self.cases.get(index)?;
        self.started.fetch_add(1, Ordering::AcqRel);
        Some(CaseEvent::Started { index, name: case.name.clone() })
    }
}

/// A running campaign session: iterate it for incremental [`CaseEvent`]s,
/// poll [`CampaignRun::progress`], cancel through a
/// [`CampaignRun::cancel_handle`], and collapse the remainder into a
/// [`CampaignReport`] with [`CampaignRun::into_report`].
///
/// The thread that drives the session (iterating it, or calling
/// `into_report`) is its worker 0: each pull either claims a case and
/// yields its `Started` event, or executes the case claimed by the previous
/// pull and yields its events.  `parallelism(n)` adds n−1 helper threads
/// that claim and execute cases the same way and stream their events over a
/// bounded channel, which the driving thread drains between its own cases.
///
/// # Event ordering contract
///
/// * Every *executed* case emits `Started`, then its `Injection` events (in
///   log order, reported after the workload finishes), then exactly one
///   `Outcome`.
/// * A case vetoed by [`Workload::health_check`] emits `Started` then
///   `Skipped` (reason [`SkipReason::Unhealthy`]) — no observer hooks fire.
/// * Cases never claimed before the run stopped emit a single `Skipped`
///   event each; these are delivered after every worker has drained, in
///   ascending case order.
/// * With `parallelism(1)` the whole event sequence is deterministic: for
///   fixed-seed plans and a deterministic workload, two runs of the same
///   campaign produce identical event streams (including under
///   `stop_on_first_crash`).  With `parallelism(n)` the per-case
///   subsequences above still hold, but events of different cases
///   interleave in completion order.
///
/// # Cancellation contract
///
/// [`CancelHandle::cancel`] (or dropping the run) prevents workers from
/// claiming further cases; in-flight cases finish and are reported.  Events
/// already queued are still delivered to an iterator, and the final report
/// accounts for every scheduled case: `outcomes.len() + cases_skipped ==
/// scheduled cases`.  The helpers' event channel is bounded, so a slow
/// consumer paces them instead of buffering unboundedly.
///
/// # Control-plane contract
///
/// Closed-loop controllers (the `lfi-rules` engine) feed decisions back
/// into a running campaign.  Two attachment points exist, with different
/// guarantees:
///
/// * **Observer side (executing thread, deterministic).**  A
///   [`CampaignObserver`] sees each executed case's hooks *synchronously on
///   the thread that executes the case* and can stop the run via
///   [`CampaignObserver::should_halt`], which is honoured before the case's
///   events ship.  The halt lands before the next case is claimed, so at
///   `parallelism(1)` fixed-seed serial reruns halt after the identical
///   case and a rule engine evaluated in these hooks produces a
///   byte-identical decision log.
/// * **Consumer side (event stream).**  A consumer iterating the run may
///   call [`CancelHandle::cancel`] in response to an event.  At
///   `parallelism(1)` nothing runs ahead of the consumer: the case whose
///   `Started` was just yielded still executes, and the cancel lands before
///   the next claim.  At `parallelism(n)` helpers have typically run ahead
///   by then, so which cases were already claimed — and therefore still
///   finish — depends on scheduling.  Consumer-side control is appropriate
///   for coarse interventions (budget overruns, operator stops).
///
/// Action delivery is **at most once per event**: an observer hook fires
/// exactly once per executed case event, a skipped case fires no hooks, and
/// a halted run delivers no further `Started` events — so a controller
/// keyed on the event sequence can never double-apply a decision.
/// Cancellation (either side) composes with the ordering contract above:
/// the final report still accounts for every scheduled case, and
/// [`CampaignReport::progress`] carries the authoritative execution
/// counters even when the consumer stopped reading before the stream
/// drained.
pub struct CampaignRun {
    shared: Arc<RunShared>,
    workload: Arc<dyn Workload>,
    /// The helpers' event bursts; `None` once every helper has been joined.
    receiver: Option<Receiver<Vec<CaseEvent>>>,
    helpers: Vec<JoinHandle<()>>,
    /// The case whose `Started` the driving thread yielded last; the next
    /// pull executes it.
    claimed: Option<usize>,
    slots: Vec<Option<TestOutcome>>,
    skipped: usize,
    pending: VecDeque<CaseEvent>,
}

impl CampaignRun {
    /// Spawns the helper threads (one fewer than the campaign's
    /// parallelism) and returns the streaming session handle.
    pub(crate) fn launch(campaign: Campaign, workload: Arc<dyn Workload>) -> CampaignRun {
        let Campaign { mut cases, observers, policy, parallelism, capture_calls } = campaign;
        cases.truncate(policy.max_cases.unwrap_or(usize::MAX));
        let workers = parallelism.clamp(1, cases.len().max(1));
        let case_count = cases.len();
        let shared = Arc::new(RunShared {
            cases,
            observers,
            stop_on_first_crash: policy.stop_on_first_crash,
            capture_calls,
            budget: policy.injection_budget.map(|budget| Arc::new(AtomicUsize::new(budget))),
            next: AtomicUsize::new(0),
            stop_reason: AtomicU8::new(REASON_NONE),
            started: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            skipped: AtomicUsize::new(0),
            crashes: AtomicUsize::new(0),
            injections: AtomicUsize::new(0),
        });
        // Each message is one case's burst of events (`Started` alone, then
        // the post-run injections + outcome together), so the per-case
        // channel handoffs stay constant however chatty the injection log
        // is.  The bound gives each helper several cases of slack while the
        // driving thread runs a case of its own.  With no helpers the last
        // sender drops at launch, and the channel reads as disconnected.
        let (sender, receiver) = std::sync::mpsc::sync_channel((workers * 4).max(16));
        let helpers = (1..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let workload = Arc::clone(&workload);
                let sender = sender.clone();
                std::thread::Builder::new()
                    .name(format!("lfi-campaign-{worker}"))
                    .spawn(move || {
                        // A failed send means the session was dropped (which
                        // halts the run first): stop quietly.
                        while let Some(started) = shared.claim() {
                            let index = started.index();
                            if sender.send(vec![started]).is_err()
                                || sender.send(execute_case(&shared, workload.as_ref(), index)).is_err()
                            {
                                return;
                            }
                        }
                    })
                    .expect("campaign helper thread spawns")
            })
            .collect();
        drop(sender);
        CampaignRun {
            shared,
            workload,
            receiver: Some(receiver),
            helpers,
            claimed: None,
            slots: (0..case_count).map(|_| None).collect(),
            skipped: 0,
            pending: VecDeque::new(),
        }
    }

    /// A handle that cancels the run from anywhere (clonable, sendable).
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle { shared: Arc::clone(&self.shared) }
    }

    /// Live progress counters (readable while the run streams).
    pub fn progress(&self) -> RunProgress {
        RunProgress {
            cases: self.shared.cases.len(),
            started: self.shared.started.load(Ordering::Acquire),
            finished: self.shared.finished.load(Ordering::Acquire),
            skipped: self.shared.skipped.load(Ordering::Acquire),
            crashes: self.shared.crashes.load(Ordering::Acquire),
            injections: self.shared.injections.load(Ordering::Acquire),
        }
    }

    /// The execution counters as one plain value — shorthand for
    /// `self.progress().snapshot()`.
    pub fn snapshot(&self) -> ProgressSnapshot {
        self.progress().snapshot()
    }

    /// Number of scheduled cases (after `max_cases` truncation).
    pub fn case_count(&self) -> usize {
        self.shared.cases.len()
    }

    /// Runs every remaining case and collapses the session into the
    /// blocking report: outcomes in case order plus the skipped-case count.
    /// Events are absorbed by value — the blocking wrappers never pay the
    /// retain-and-yield clone the iterator path needs.
    ///
    /// # Panics
    ///
    /// Re-raises a panicking [`Workload`] hook, whether it ran on this
    /// thread or on a helper.
    pub fn into_report(mut self) -> CampaignReport {
        while let Some(event) = self.pull() {
            self.absorb_owned(event);
        }
        let progress = self.progress().snapshot();
        CampaignReport {
            outcomes: std::mem::take(&mut self.slots).into_iter().flatten().collect(),
            cases_skipped: self.skipped,
            progress,
        }
    }

    /// The one refill step behind [`Iterator::next`] and
    /// [`CampaignRun::into_report`]: the next event, or `None` once the run
    /// is over.  Executes the case claimed by the previous pull; otherwise
    /// takes a ready helper burst, else claims a case, else waits for the
    /// helpers and finishes the run.
    fn pull(&mut self) -> Option<CaseEvent> {
        while self.pending.is_empty() {
            let Some(receiver) = &self.receiver else { break };
            if let Some(index) = self.claimed.take() {
                self.pending.extend(execute_case(&self.shared, self.workload.as_ref(), index));
            } else if let Ok(burst) = receiver.try_recv() {
                self.pending.extend(burst);
            } else if let Some(started) = self.shared.claim() {
                self.claimed = Some(started.index());
                self.pending.push_back(started);
            } else if let Ok(burst) = receiver.recv() {
                self.pending.extend(burst);
            } else {
                // Every helper dropped its sender: the run is complete.
                self.receiver = None;
                self.finish();
            }
        }
        self.pending.pop_front()
    }

    /// Folds a delivered event into the session-side report state (the
    /// iterator path, which must also yield the event to the consumer).
    fn absorb(&mut self, event: &CaseEvent) {
        match event {
            CaseEvent::Outcome { index, outcome } => self.slots[*index] = Some(outcome.clone()),
            CaseEvent::Skipped { .. } => self.skipped += 1,
            _ => {}
        }
    }

    /// [`CampaignRun::absorb`] by value: outcomes move into their slots.
    fn absorb_owned(&mut self, event: CaseEvent) {
        match event {
            CaseEvent::Outcome { index, outcome } => self.slots[index] = Some(outcome),
            CaseEvent::Skipped { .. } => self.skipped += 1,
            _ => {}
        }
    }

    /// Joins the drained helpers — re-raising the first helper panic, so a
    /// panicking [`Workload`] hook surfaces to the caller instead of
    /// silently truncating the report — and synthesizes `Skipped` events
    /// for every case that was never claimed, in ascending case order.
    fn finish(&mut self) {
        for handle in self.helpers.drain(..) {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        let cases = &self.shared.cases;
        let claimed = self.shared.next.load(Ordering::Relaxed).min(cases.len());
        let reason = self.shared.skip_reason();
        self.shared.skipped.fetch_add(cases.len() - claimed, Ordering::AcqRel);
        for (index, case) in cases.iter().enumerate().skip(claimed) {
            self.pending.push_back(CaseEvent::Skipped { index, name: case.name.clone(), reason });
        }
    }
}

impl Iterator for CampaignRun {
    type Item = CaseEvent;

    fn next(&mut self) -> Option<CaseEvent> {
        let event = self.pull();
        if let Some(event) = &event {
            self.absorb(event);
        }
        event
    }
}

impl Drop for CampaignRun {
    fn drop(&mut self) {
        // Dropping mid-stream is a cancellation: stop claiming, unblock any
        // helper parked on the bounded channel, and reap the threads.  A
        // helper panic still surfaces (like `std::thread::scope`) unless
        // this drop is itself part of a panic unwind.
        self.shared.halt(REASON_CANCELLED);
        self.receiver = None;
        for handle in self.helpers.drain(..) {
            if let Err(payload) = handle.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

impl std::fmt::Debug for CampaignRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignRun")
            .field("cases", &self.shared.cases.len())
            .field("progress", &self.progress())
            .finish()
    }
}

/// The one execute step of every worker: runs one claimed case end to end
/// on the calling thread and returns its events.
fn execute_case(shared: &RunShared, workload: &dyn Workload, index: usize) -> Vec<CaseEvent> {
    let case = &shared.cases[index];
    let mut process = workload.setup(case);
    let injector = Injector::with_budget(&case.plan, shared.budget.clone());
    process.preload(injector.synthesize_interceptor());
    if shared.capture_calls {
        process.set_call_log_enabled(true);
    }
    if !workload.health_check(&mut process) {
        shared.skipped.fetch_add(1, Ordering::AcqRel);
        return vec![CaseEvent::Skipped { index, name: case.name.clone(), reason: SkipReason::Unhealthy }];
    }
    for observer in &shared.observers {
        observer.on_test_start(case);
    }
    let status = workload.run(&mut process);
    // The dropped counter must be read before the drain resets it.
    let calls_dropped = if shared.capture_calls { process.state().call_log_dropped() } else { 0 };
    let calls = if shared.capture_calls { process.drain_call_log() } else { Vec::new() };
    let log = injector.log();
    // Teardown runs after the log snapshot, so its library calls never
    // pollute the case's record.
    workload.teardown(&mut process);
    for observer in &shared.observers {
        for record in &log.injections {
            observer.on_injection(case, record);
        }
    }
    let replay = log.replay_plan();
    let injections = log.injection_count();
    let outcome = TestOutcome { name: case.name.clone(), status, log, replay, calls, calls_dropped };
    for observer in &shared.observers {
        observer.on_outcome(&outcome);
    }
    let crashed = outcome.status.is_crash();
    let observer_halt = shared.observers.iter().any(|observer| observer.should_halt(&outcome));
    shared.injections.fetch_add(injections, Ordering::AcqRel);
    if crashed {
        shared.crashes.fetch_add(1, Ordering::AcqRel);
    }
    shared.finished.fetch_add(1, Ordering::AcqRel);
    // Stop decisions happen before the events ship, so with one worker no
    // further case can slip in ahead of the halt (deterministic streams).
    if shared.stop_on_first_crash && crashed {
        shared.halt(REASON_CRASH);
    }
    if observer_halt {
        shared.halt(REASON_CANCELLED);
    }
    if shared.budget.as_ref().is_some_and(|pool| pool.load(Ordering::Acquire) == 0) {
        shared.halt(REASON_BUDGET);
    }
    let mut burst: Vec<CaseEvent> = Vec::with_capacity(outcome.log.injections.len() + 1);
    for record in &outcome.log.injections {
        burst.push(CaseEvent::Injection { index, record: record.clone() });
    }
    burst.push(CaseEvent::Outcome { index, outcome });
    burst
}
