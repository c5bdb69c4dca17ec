//! The streaming campaign session: [`Campaign::start`] returns a
//! [`CampaignRun`] — an iterator of [`CaseEvent`]s backed by a bounded
//! channel — instead of blocking until every case has finished.
//!
//! [`Campaign::start`]: crate::Campaign::start

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::{CampaignObserver, CampaignReport, Injector, TestCase, TestOutcome, Workload};

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

// Per-case scheduling states.
const STATE_PENDING: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_DONE: u8 = 2;
const STATE_SKIPPED: u8 = 3;

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
        self.shared.stop.load(Ordering::Acquire)
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

/// State shared between the session handle, its workers and cancel handles.
struct RunShared {
    cases: Vec<TestCase>,
    observers: Vec<Arc<dyn CampaignObserver>>,
    stop_on_first_crash: bool,
    capture_calls: bool,
    budget: Option<Arc<AtomicUsize>>,
    next: AtomicUsize,
    stop: AtomicBool,
    stop_reason: AtomicU8,
    states: Vec<AtomicU8>,
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
        self.stop.store(true, Ordering::Release);
    }

    fn skip_reason(&self) -> SkipReason {
        match self.stop_reason.load(Ordering::Acquire) {
            REASON_CRASH => SkipReason::CrashHalt,
            REASON_BUDGET => SkipReason::BudgetExhausted,
            _ => SkipReason::Cancelled,
        }
    }
}

/// Configuration handed from the [`Campaign`](crate::Campaign) builder to
/// [`CampaignRun::launch`].
pub(crate) struct RunConfig {
    pub cases: Vec<TestCase>,
    pub observers: Vec<Arc<dyn CampaignObserver>>,
    pub stop_on_first_crash: bool,
    pub capture_calls: bool,
    pub budget: Option<Arc<AtomicUsize>>,
    pub workers: usize,
}

/// A running campaign session: iterate it for incremental [`CaseEvent`]s,
/// poll [`CampaignRun::progress`], cancel through a
/// [`CampaignRun::cancel_handle`], and collapse the remainder into a
/// [`CampaignReport`] with [`CampaignRun::into_report`].
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
/// scheduled cases`.  The event channel is bounded, so a slow consumer
/// paces the workers instead of buffering unboundedly.
///
/// # Control-plane contract
///
/// Closed-loop controllers (the `lfi-rules` engine) feed decisions back
/// into a running campaign.  Two attachment points exist, with different
/// guarantees:
///
/// * **Observer side (worker thread, deterministic).**  A
///   [`CampaignObserver`] sees each executed case's hooks *synchronously on
///   the worker thread* and can stop the run via
///   [`CampaignObserver::should_halt`], which is honoured before the case's
///   events ship.  Because workers run ahead of the stream consumer (up to
///   the channel bound), this is the only attachment point where a halt
///   decision is deterministic at `parallelism(1)`: the halt lands before
///   the next case is claimed, so fixed-seed serial reruns halt after the
///   identical case and a rule engine evaluated in these hooks produces a
///   byte-identical decision log.
/// * **Consumer side (event stream, racy by design).**  A consumer
///   iterating the run may call [`CancelHandle::cancel`] in response to an
///   event, but the workers have typically run ahead by then: which cases
///   were already claimed — and therefore still finish — depends on
///   scheduling, even at `parallelism(1)`.  Consumer-side control is
///   appropriate for coarse interventions (budget overruns, operator
///   stops), not for decision streams that must replay.
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
    receiver: Option<Receiver<Vec<CaseEvent>>>,
    workers: Vec<JoinHandle<()>>,
    slots: Vec<Option<TestOutcome>>,
    skipped: usize,
    pending: VecDeque<CaseEvent>,
}

impl CampaignRun {
    /// Spawns the worker pool and returns the streaming session handle.
    pub(crate) fn launch(config: RunConfig, workload: Arc<dyn Workload>) -> CampaignRun {
        let case_count = config.cases.len();
        let shared = Arc::new(RunShared {
            states: (0..case_count).map(|_| AtomicU8::new(STATE_PENDING)).collect(),
            cases: config.cases,
            observers: config.observers,
            stop_on_first_crash: config.stop_on_first_crash,
            capture_calls: config.capture_calls,
            budget: config.budget,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
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
        // is.  The bound paces producers against a slow consumer without
        // ever deadlocking a worker against its own case's events.
        let (sender, receiver) = std::sync::mpsc::sync_channel((config.workers * 4).max(16));
        let workers = (0..config.workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let workload = Arc::clone(&workload);
                let sender = sender.clone();
                std::thread::Builder::new()
                    .name(format!("lfi-campaign-{worker}"))
                    .spawn(move || worker_loop(&shared, workload.as_ref(), &sender))
                    .expect("campaign worker thread spawns")
            })
            .collect();
        drop(sender);
        CampaignRun {
            shared,
            receiver: Some(receiver),
            workers,
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

    /// Drains every remaining event and collapses the session into the
    /// blocking report: outcomes in case order plus the skipped-case count.
    /// Undelivered events are absorbed by value — the blocking wrappers
    /// never pay the retain-and-yield clone the iterator path needs.
    ///
    /// # Panics
    ///
    /// Re-raises a worker thread's panic (i.e. a panicking
    /// [`Workload`] hook), like the pre-session blocking driver did.
    pub fn into_report(mut self) -> CampaignReport {
        while let Some(event) = self.pending.pop_front() {
            self.absorb_owned(event);
        }
        if let Some(receiver) = self.receiver.take() {
            for burst in receiver.iter() {
                for event in burst {
                    self.absorb_owned(event);
                }
            }
            self.finish();
            while let Some(event) = self.pending.pop_front() {
                self.absorb_owned(event);
            }
        }
        let progress = self.progress().snapshot();
        CampaignReport {
            outcomes: std::mem::take(&mut self.slots).into_iter().flatten().collect(),
            cases_skipped: self.skipped,
            progress,
        }
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

    /// Joins the drained workers — re-raising the first worker panic, so a
    /// panicking [`Workload`] hook surfaces to the caller instead of
    /// silently truncating the report — and synthesizes `Skipped` events
    /// for every case that was never claimed, in ascending case order.
    fn finish(&mut self) {
        for handle in self.workers.drain(..) {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        let reason = self.shared.skip_reason();
        for (index, state) in self.shared.states.iter().enumerate() {
            if state.load(Ordering::Acquire) == STATE_PENDING {
                self.shared.skipped.fetch_add(1, Ordering::AcqRel);
                self.pending.push_back(CaseEvent::Skipped {
                    index,
                    name: self.shared.cases[index].name.clone(),
                    reason,
                });
            }
        }
    }
}

impl Iterator for CampaignRun {
    type Item = CaseEvent;

    fn next(&mut self) -> Option<CaseEvent> {
        while self.pending.is_empty() {
            let Some(receiver) = &self.receiver else { break };
            match receiver.recv() {
                Ok(burst) => self.pending.extend(burst),
                Err(_) => {
                    // Every worker dropped its sender: the run is complete.
                    self.receiver = None;
                    self.finish();
                }
            }
        }
        let event = self.pending.pop_front();
        if let Some(event) = &event {
            self.absorb(event);
        }
        event
    }
}

impl Drop for CampaignRun {
    fn drop(&mut self) {
        // Dropping mid-stream is a cancellation: stop claiming, unblock any
        // worker parked on the bounded channel, and reap the threads.  A
        // worker panic still surfaces (like `std::thread::scope`) unless
        // this drop is itself part of a panic unwind.
        self.shared.halt(REASON_CANCELLED);
        self.receiver = None;
        for handle in self.workers.drain(..) {
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

/// Delivers one case's burst of events, blocking while the bounded channel
/// is full (this is the backpressure that lets a consumer pace the
/// workers).  Returns `false` when the receiver is gone (the session was
/// dropped) — the worker should wind down.  Dropping the receiver wakes
/// parked senders, so a dropped session never wedges its workers.
fn deliver(shared: &RunShared, sender: &SyncSender<Vec<CaseEvent>>, burst: Vec<CaseEvent>) -> bool {
    if sender.send(burst).is_err() {
        shared.halt(REASON_CANCELLED);
        return false;
    }
    true
}

/// The worker loop: claim cases, execute them through the workload, stream
/// events.
fn worker_loop(shared: &RunShared, workload: &dyn Workload, sender: &SyncSender<Vec<CaseEvent>>) {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let index = shared.next.fetch_add(1, Ordering::Relaxed);
        let Some(case) = shared.cases.get(index) else { break };
        shared.states[index].store(STATE_RUNNING, Ordering::Release);
        shared.started.fetch_add(1, Ordering::AcqRel);
        if !deliver(shared, sender, vec![CaseEvent::Started { index, name: case.name.clone() }]) {
            break;
        }
        if !execute_case(shared, workload, sender, index, case) {
            break;
        }
    }
}

/// Executes one claimed case end to end and streams its events.  Returns
/// `false` when the event channel is gone.
fn execute_case(
    shared: &RunShared,
    workload: &dyn Workload,
    sender: &SyncSender<Vec<CaseEvent>>,
    index: usize,
    case: &TestCase,
) -> bool {
    let mut process = workload.setup(case);
    let injector = Injector::with_budget(&case.plan, shared.budget.clone());
    process.preload(injector.synthesize_interceptor());
    if shared.capture_calls {
        process.set_call_log_enabled(true);
    }
    if !workload.health_check(&mut process) {
        shared.states[index].store(STATE_SKIPPED, Ordering::Release);
        shared.skipped.fetch_add(1, Ordering::AcqRel);
        return deliver(
            shared,
            sender,
            vec![CaseEvent::Skipped { index, name: case.name.clone(), reason: SkipReason::Unhealthy }],
        );
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
    shared.states[index].store(STATE_DONE, Ordering::Release);
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
    deliver(shared, sender, burst)
}
