//! The campaign driver (§5, §5.2): run a workload under a set of fault
//! scenarios and collect per-test-case outcomes, logs and replay scripts.
//!
//! Campaigns are configured through the fluent [`Campaign`] builder: test
//! cases (hand-made, or derived from a
//! [`ScenarioGenerator`](lfi_scenario::generator::ScenarioGenerator)),
//! [`CampaignObserver`] hooks, an [`ExecutionPolicy`], and a parallelism
//! degree for running independent test cases on worker threads.  Execution
//! is session-based: [`Campaign::start`] hands a [`Workload`] to a worker
//! pool and returns a streaming [`CampaignRun`]; the blocking entry points
//! ([`Campaign::run`], [`Campaign::run_workload`]) are thin
//! collect-into-report wrappers over it.

use std::fmt;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use lfi_intern::Symbol;
use lfi_profile::FaultProfile;
use lfi_runtime::{ExitStatus, Process};
use lfi_scenario::generator::ScenarioGenerator;
use lfi_scenario::Plan;

use crate::session::RunConfig;
use crate::{CampaignRun, FnWorkload, InjectionRecord, ProgressSnapshot, TestLog, Workload};

/// One fault-injection test case: a name and the scenario to apply.
#[derive(Debug, Clone, PartialEq)]
pub struct TestCase {
    /// Human-readable test-case name (appears in the report).
    pub name: String,
    /// The fault scenario to drive.
    pub plan: Plan,
}

impl TestCase {
    /// Creates a test case.
    pub fn new(name: impl Into<String>, plan: Plan) -> Self {
        Self { name: name.into(), plan }
    }
}

/// The outcome of one test case.
#[derive(Debug, Clone, PartialEq)]
pub struct TestOutcome {
    /// Test-case name.
    pub name: String,
    /// How the workload run ended.
    pub status: ExitStatus,
    /// The injection log.
    pub log: TestLog,
    /// The replay script distilled from the log.
    pub replay: Plan,
    /// The case's dispatch call log, drained from its process after the
    /// workload finished (empty unless [`Campaign::capture_call_log`] was
    /// enabled).  Exploration engines mine this stream for which functions a
    /// workload actually reaches, and how often.
    pub calls: Vec<Symbol>,
    /// How many dispatched calls the bounded log dropped once it hit its
    /// capacity (see `ProcessState::set_call_log_capacity`).  Non-zero means
    /// [`TestOutcome::calls`] is a truncated prefix — consumers that treat
    /// an *absent* function as proof of unreachability must check this.
    pub calls_dropped: u64,
}

impl TestOutcome {
    /// Number of injections performed during the run.
    pub fn injection_count(&self) -> usize {
        self.log.injection_count()
    }
}

/// The report produced by a campaign: one outcome per executed test case,
/// plus an account of the scheduled cases that never ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Outcomes, in test-case order.
    pub outcomes: Vec<TestOutcome>,
    /// Scheduled cases that never executed: the run was cancelled, halted by
    /// `stop_on_first_crash`, starved by an exhausted injection budget, or a
    /// case failed its workload's health check.  Cases trimmed up front by
    /// `ExecutionPolicy::max_cases` are *not* counted — they were never
    /// scheduled.
    pub cases_skipped: usize,
    /// The run's final execution counters.  On a cleanly drained run these
    /// agree with the outcome list; on a run that ended via cancellation
    /// (or a dropped consumer) they also count the work of cases whose
    /// events were never delivered — in particular
    /// [`ProgressSnapshot::injections`] is the authoritative injection
    /// total for partial runs, which is what [`CampaignReport::to_text`]
    /// reports.
    pub progress: ProgressSnapshot,
}

impl CampaignReport {
    /// Outcomes whose workload crashed with a signal — the report entries the
    /// paper says "can pinpoint bugs or weak spots in the target software".
    pub fn crashes(&self) -> impl Iterator<Item = &TestOutcome> {
        self.outcomes.iter().filter(|o| o.status.is_crash())
    }

    /// Outcomes whose workload exited unsuccessfully but did not crash.
    pub fn failures(&self) -> impl Iterator<Item = &TestOutcome> {
        self.outcomes.iter().filter(|o| !o.status.is_crash() && !o.status.is_success())
    }

    /// Total number of injections across the campaign: the sum over the
    /// delivered outcomes, or the run's progress counter when that is
    /// larger (a cancelled/abandoned run performs injections whose outcome
    /// events are never delivered).
    pub fn total_injections(&self) -> usize {
        let delivered: usize = self.outcomes.iter().map(TestOutcome::injection_count).sum();
        delivered.max(self.progress.injections)
    }

    /// Renders the campaign report as text (the "test log" of Figure 1).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# LFI campaign report: {} test cases\n", self.outcomes.len()));
        for outcome in &self.outcomes {
            out.push_str(&format!("{}: {} ({} injections)\n", outcome.name, outcome.status, outcome.injection_count()));
        }
        out.push_str(&format!(
            "# crashes: {}, failures: {}, cases skipped: {}, total injections: {}\n",
            self.crashes().count(),
            self.failures().count(),
            self.cases_skipped,
            self.total_injections()
        ));
        out
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} test cases, {} crashes, {} failures",
            self.outcomes.len(),
            self.crashes().count(),
            self.failures().count()
        )?;
        if self.cases_skipped > 0 {
            write!(f, ", {} skipped", self.cases_skipped)?;
        }
        Ok(())
    }
}

/// Hooks invoked while a campaign runs.
///
/// Observers may be shared across worker threads, so implementations must be
/// `Send + Sync`; interior mutability (e.g. a mutex-guarded vector) is the
/// expected pattern for collecting data.  For each executed test case the
/// driver calls `on_test_start`, then `on_injection` once per injection
/// recorded during the run (in log order, after the workload finishes), then
/// `on_outcome`; cases skipped by a health check or a halted run fire no
/// hooks.  With `parallelism(n)`, hooks of *different* cases interleave; the
/// per-case ordering still holds.
pub trait CampaignObserver: Send + Sync {
    /// A test case is about to run.
    fn on_test_start(&self, _case: &TestCase) {}

    /// An injection was performed during `case` (reported from the injection
    /// log once the case's workload finishes).
    fn on_injection(&self, _case: &TestCase, _record: &InjectionRecord) {}

    /// A test case finished.
    fn on_outcome(&self, _outcome: &TestOutcome) {}

    /// Asked once per executed case, on the worker thread, right after the
    /// case's [`CampaignObserver::on_outcome`] hooks and *before* its
    /// events ship to the stream consumer.  Returning `true` halts the run
    /// exactly like a [`CancelHandle`](crate::CancelHandle) cancellation —
    /// no further case is claimed; in-flight cases (under `parallelism(n)`)
    /// still finish and are reported.
    ///
    /// Because the decision lands before the events ship, a halt at
    /// `parallelism(1)` is deterministic: the same case always is the last
    /// one executed, exactly like `stop_on_first_crash`.  This is the hook
    /// closed-loop rule engines use to stop a campaign mid-flight without
    /// racing the consumer.
    fn should_halt(&self, _outcome: &TestOutcome) -> bool {
        false
    }
}

/// When a campaign stops before exhausting its test-case list.
///
/// The default policy runs every case.  `max_cases` truncates the list up
/// front; `stop_on_first_crash` stops the campaign after the case that
/// triggers it (with `parallelism(n)`, cases already in flight still finish
/// and are reported).  `injection_budget` is a *hard* bound: the remaining
/// budget lives in one atomic shared by every case's injector, so even
/// concurrent workers cannot collectively perform more injections than the
/// budget allows — once the pool is empty, in-flight cases finish with all
/// further triggers demoted to pass-throughs, and no new case is scheduled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionPolicy {
    stop_on_first_crash: bool,
    max_cases: Option<usize>,
    injection_budget: Option<usize>,
}

impl ExecutionPolicy {
    /// The default policy: run every test case.
    pub fn run_all() -> Self {
        Self::default()
    }

    /// Stop scheduling new cases once a case crashes.
    pub fn stop_on_first_crash(mut self) -> Self {
        self.stop_on_first_crash = true;
        self
    }

    /// Run at most `max` test cases.
    pub fn max_cases(mut self, max: usize) -> Self {
        self.max_cases = Some(max);
        self
    }

    /// Caps the whole campaign at `budget` injections.  The budget is a
    /// shared atomic token pool: every firing trigger in every case (on any
    /// worker thread) consumes one token, an empty pool turns further
    /// triggers into pass-throughs, and the scheduler stops claiming new
    /// cases once the pool is dry — so the cap holds exactly even under
    /// [`Campaign::parallelism`].
    pub fn injection_budget(mut self, budget: usize) -> Self {
        self.injection_budget = Some(budget);
        self
    }
}

/// Fluent builder for fault-injection campaigns.
///
/// [`Campaign::start`] turns the builder into a streaming
/// [`CampaignRun`] session; [`Campaign::run`] is the blocking shorthand:
///
/// ```
/// use lfi_controller::{Campaign, ExecutionPolicy, TestCase};
/// use lfi_runtime::{ExitStatus, NativeLibrary, Process};
/// use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
///
/// let case = TestCase::new(
///     "fail-read",
///     Plan::new().entry(PlanEntry {
///         function: "read".into(),
///         trigger: Trigger::on_call(1),
///         action: FaultAction::return_value(-1).with_errno(5),
///     }),
/// );
/// let report = Campaign::new()
///     .case(TestCase::new("baseline", Plan::new()))
///     .case(case)
///     .policy(ExecutionPolicy::run_all())
///     .parallelism(2)
///     .run(
///         || {
///             let mut process = Process::new();
///             process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
///             process
///         },
///         |process| match process.call("read", &[3, 0, 8]) {
///             Ok(n) if n >= 0 => ExitStatus::Exited(0),
///             _ => ExitStatus::Exited(1),
///         },
///     );
/// assert_eq!(report.outcomes.len(), 2);
/// assert_eq!(report.failures().count(), 1);
/// ```
#[derive(Default)]
pub struct Campaign {
    cases: Vec<TestCase>,
    observers: Vec<Arc<dyn CampaignObserver>>,
    policy: ExecutionPolicy,
    parallelism: usize,
    capture_calls: bool,
}

impl Campaign {
    /// An empty campaign (serial, run-all policy, no cases).
    pub fn new() -> Self {
        Self::default()
    }

    /// A campaign whose test cases are derived from a scenario generator:
    /// one case per generated plan entry (the paper's one-fault-per-run
    /// style), each inheriting the generated plan's seed.
    ///
    /// Call-count triggers are re-anchored to the *first* call in their
    /// case: generators like `Exhaustive` use consecutive ordinals so that
    /// one run can iterate a function's whole fault set, but split into
    /// single-fault cases those ordinals would leave case *n* waiting for
    /// *n* calls that its workload may never make.  Probability and
    /// stack-trace conditions are preserved.  To keep the original
    /// ordinals, build cases by hand with [`Campaign::cases`].
    pub fn from_generator<G>(generator: &G, profiles: &[FaultProfile]) -> Self
    where
        G: ScenarioGenerator + ?Sized,
    {
        let plan = generator.generate(profiles);
        let seed = plan.seed;
        let cases = plan
            .entries
            .into_iter()
            .enumerate()
            .map(|(index, mut entry)| {
                let name = format!("{}-{:04}-{}", generator.name(), index, entry.function);
                if entry.trigger.inject_at_call.is_some() {
                    entry.trigger.inject_at_call = Some(1);
                }
                TestCase::new(name, Plan { entries: vec![entry], seed })
            })
            .collect();
        Campaign { cases, ..Self::default() }
    }

    /// Adds one test case.
    pub fn case(mut self, case: TestCase) -> Self {
        self.cases.push(case);
        self
    }

    /// Adds test cases in bulk.
    pub fn cases(mut self, cases: impl IntoIterator<Item = TestCase>) -> Self {
        self.cases.extend(cases);
        self
    }

    /// Attaches an observer (hooks run in registration order).
    pub fn observer(mut self, observer: impl CampaignObserver + 'static) -> Self {
        self.observers.push(Arc::new(observer));
        self
    }

    /// Attaches an already-shared observer.
    pub fn observer_arc(mut self, observer: Arc<dyn CampaignObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Sets the execution policy (default: run every case).
    pub fn policy(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs up to `workers` test cases concurrently, each on its own
    /// [`Process`] (0 and 1 both mean serial).  Outcomes are reported in
    /// test-case order regardless of completion order.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Records each case's dispatch call log and drains it into
    /// [`TestOutcome::calls`] after the workload finishes (default: off).
    /// This is the per-case reachability stream adaptive exploration engines
    /// consume; leave it off for plain campaigns — a chatty workload's call
    /// stream is much larger than its injection log.
    pub fn capture_call_log(mut self, capture: bool) -> Self {
        self.capture_calls = capture;
        self
    }

    /// The configured test cases.
    pub fn case_list(&self) -> &[TestCase] {
        &self.cases
    }

    /// Starts the campaign as a streaming session: a worker pool (sized by
    /// [`Campaign::parallelism`]) drives the [`Workload`] case by case, and
    /// the returned [`CampaignRun`] yields [`CaseEvent`](crate::CaseEvent)s
    /// incrementally over a bounded channel.  See [`CampaignRun`] for the
    /// event ordering and cancellation contracts.
    pub fn start(self, workload: impl Workload + 'static) -> CampaignRun {
        self.start_arc(Arc::new(workload))
    }

    /// [`Campaign::start`] for a workload that is already shared (e.g. one
    /// pulled from a [`WorkloadRegistry`](crate::WorkloadRegistry)).
    pub fn start_arc(self, workload: Arc<dyn Workload>) -> CampaignRun {
        let limit = self.policy.max_cases.map_or(self.cases.len(), |max| max.min(self.cases.len()));
        let mut cases = self.cases;
        cases.truncate(limit);
        let workers = self.parallelism.clamp(1, cases.len().max(1));
        let budget = self.policy.injection_budget.map(|budget| Arc::new(AtomicUsize::new(budget)));
        CampaignRun::launch(
            RunConfig {
                cases,
                observers: self.observers,
                stop_on_first_crash: self.policy.stop_on_first_crash,
                capture_calls: self.capture_calls,
                budget,
                workers,
            },
            workload,
        )
    }

    /// Runs the campaign to completion under a [`Workload`] and collects the
    /// report — the blocking shorthand for
    /// `self.start(workload).into_report()`.
    pub fn run_workload(self, workload: impl Workload + 'static) -> CampaignReport {
        self.start(workload).into_report()
    }

    /// Runs the campaign with a shared setup/workload closure pair: `setup`
    /// builds a fresh process per case (the developer-provided start script
    /// of §5), `workload` exercises it.  A thin wrapper that adapts the pair
    /// through [`FnWorkload`] and collects [`Campaign::start`]'s stream into
    /// a report.
    pub fn run<S, W>(self, setup: S, workload: W) -> CampaignReport
    where
        S: Fn() -> Process + Send + Sync + 'static,
        W: Fn(&mut Process) -> ExitStatus + Send + Sync + 'static,
    {
        self.run_workload(FnWorkload::new("closure-pair", setup, workload))
    }
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("cases", &self.cases.len())
            .field("observers", &self.observers.len())
            .field("policy", &self.policy)
            .field("parallelism", &self.parallelism)
            .field("capture_calls", &self.capture_calls)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CaseEvent, SkipReason};
    use lfi_profile::{ErrorReturn, FunctionProfile};
    use lfi_runtime::{NativeLibrary, Signal};
    use lfi_scenario::generator::{Exhaustive, Filtered};
    use lfi_scenario::{FaultAction, PlanEntry, Trigger};
    use std::sync::Mutex;

    fn libc() -> NativeLibrary {
        NativeLibrary::builder("libc.so.6")
            .function("malloc", |ctx| if ctx.arg(0) > 1 << 30 { 0 } else { 0x1000 })
            .function("read", |ctx| ctx.arg(2))
            .build()
    }

    fn setup() -> Process {
        let mut process = Process::new();
        process.load(libc());
        process
    }

    /// A toy workload: read a header, allocate that many bytes, crash with
    /// SIGABRT if the allocation fails.
    fn workload(process: &mut Process) -> ExitStatus {
        let header = process.call("read", &[3, 0, 8]).unwrap_or(-1);
        if header < 0 {
            return ExitStatus::Exited(1);
        }
        let size = if header == 8 { 64 } else { 1 << 40 };
        let pointer = process.call("malloc", &[size]).unwrap_or(0);
        if pointer == 0 {
            return ExitStatus::Crashed(Signal::Abort);
        }
        ExitStatus::Exited(0)
    }

    fn standard_cases() -> Vec<TestCase> {
        vec![
            TestCase::new("baseline", Plan::new()),
            TestCase::new(
                "fail-read",
                Plan::new().entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::on_call(1),
                    action: FaultAction::return_value(-1).with_errno(5),
                }),
            ),
            TestCase::new(
                "short-read",
                Plan::new().entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::on_call(1),
                    action: FaultAction::return_value(4),
                }),
            ),
        ]
    }

    #[test]
    fn campaign_separates_clean_runs_failures_and_crashes() {
        let campaign = Campaign::new().cases(standard_cases());
        assert_eq!(campaign.case_list().len(), 3);
        let report = campaign.run(setup, workload);
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.outcomes[0].status.is_success());
        assert_eq!(report.outcomes[1].status, ExitStatus::Exited(1));
        assert_eq!(report.outcomes[2].status, ExitStatus::Crashed(Signal::Abort));
        assert_eq!(report.crashes().count(), 1);
        assert_eq!(report.failures().count(), 1);
        assert_eq!(report.total_injections(), 2);
        assert_eq!(report.cases_skipped, 0);
        let text = report.to_text();
        assert!(text.contains("short-read"));
        assert!(text.contains("SIGABRT"));
        assert!(text.contains("cases skipped: 0"));
        assert!(report.to_string().contains("3 test cases"));
        assert!(format!("{:?}", Campaign::new().cases(standard_cases())).contains("cases: 3"));
    }

    #[test]
    fn replay_script_from_a_crashing_case_reproduces_the_crash() {
        let crash_case = TestCase::new(
            "short-read",
            Plan::new().entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(1),
                action: FaultAction::return_value(4),
            }),
        );
        let report = Campaign::new().case(crash_case).run(setup, workload);
        let replay = report.outcomes[0].replay.clone();
        assert!(!replay.is_empty());
        let report2 = Campaign::new().case(TestCase::new("replay", replay)).run(setup, workload);
        assert_eq!(report2.outcomes[0].status, ExitStatus::Crashed(Signal::Abort));
    }

    /// Records every hook invocation with its case name.
    #[derive(Default)]
    struct EventLog {
        events: Mutex<Vec<String>>,
    }

    impl CampaignObserver for Arc<EventLog> {
        fn on_test_start(&self, case: &TestCase) {
            self.events.lock().unwrap().push(format!("start:{}", case.name));
        }

        fn on_injection(&self, case: &TestCase, record: &InjectionRecord) {
            self.events.lock().unwrap().push(format!("inject:{}:{}", case.name, record.function));
        }

        fn on_outcome(&self, outcome: &TestOutcome) {
            self.events.lock().unwrap().push(format!("outcome:{}:{}", outcome.name, outcome.status));
        }
    }

    #[test]
    fn observers_see_start_injection_outcome_in_order() {
        let log = Arc::new(EventLog::default());
        let report = Campaign::new().cases(standard_cases()).observer(Arc::clone(&log)).run(setup, workload);
        assert_eq!(report.outcomes.len(), 3);
        let events = log.events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                "start:baseline",
                "outcome:baseline:exited with status 0",
                "start:fail-read",
                "inject:fail-read:read",
                "outcome:fail-read:exited with status 1",
                "start:short-read",
                "inject:short-read:read",
                "outcome:short-read:killed by SIGABRT",
            ]
        );
    }

    #[test]
    fn parallel_and_serial_runs_produce_the_same_report() {
        // Many deterministic cases: each injects a distinct short read.
        let cases: Vec<TestCase> = (0..24)
            .map(|i| {
                TestCase::new(
                    format!("case-{i:02}"),
                    Plan::new().entry(PlanEntry {
                        function: "read".into(),
                        trigger: Trigger::on_call(1),
                        action: FaultAction::return_value(if i % 3 == 0 { 4 } else { 8 }),
                    }),
                )
            })
            .collect();
        let serial = Campaign::new().cases(cases.clone()).run(setup, workload);
        let parallel = Campaign::new().cases(cases).parallelism(8).run(setup, workload);
        // Outcomes are slot-ordered, so the full reports match exactly.
        assert_eq!(serial, parallel);
        assert_eq!(serial.outcomes.len(), 24);
        assert_eq!(serial.crashes().count(), 8);
    }

    #[test]
    fn parallel_campaigns_with_sharded_state_stay_deterministic() {
        // Random triggers on a fixed seed: every case owns its injector (and
        // therefore its own per-function RNG shards), so a parallelism(4)
        // run must produce byte-for-byte the report of a parallelism(1) run.
        let cases: Vec<TestCase> = (0..16)
            .map(|i| {
                TestCase::new(
                    format!("random-{i:02}"),
                    Plan::new().with_seed(1000 + i).entry(PlanEntry {
                        function: "read".into(),
                        trigger: Trigger::with_probability(0.4),
                        action: FaultAction::return_value(-1).with_errno(5),
                    }),
                )
            })
            .collect();
        let workload = |process: &mut Process| {
            let mut failures = 0;
            for _ in 0..20 {
                if process.call("read", &[3, 0, 8]).unwrap_or(-1) < 0 {
                    failures += 1;
                }
            }
            ExitStatus::Exited(failures)
        };
        let serial = Campaign::new().cases(cases.clone()).parallelism(1).run(setup, workload);
        let parallel = Campaign::new().cases(cases).parallelism(4).run(setup, workload);
        assert_eq!(serial, parallel);
        assert!(serial.total_injections() > 0, "the random triggers actually fired");
    }

    #[test]
    fn stop_on_first_crash_halts_the_campaign() {
        let report = Campaign::new()
            .cases(standard_cases())
            .policy(ExecutionPolicy::run_all().stop_on_first_crash())
            .run(setup, workload);
        // standard cases crash only in case 3; a crash-first ordering:
        let crash_first = vec![standard_cases().remove(2), standard_cases().remove(0), standard_cases().remove(1)];
        let stopped = Campaign::new()
            .cases(crash_first)
            .policy(ExecutionPolicy::run_all().stop_on_first_crash())
            .run(setup, workload);
        assert_eq!(report.outcomes.len(), 3, "crash in the last case stops nothing");
        assert_eq!(report.cases_skipped, 0);
        assert_eq!(stopped.outcomes.len(), 1, "crash in the first case stops the rest");
        assert!(stopped.outcomes[0].status.is_crash());
        // The halted cases no longer vanish silently: the report says so.
        assert_eq!(stopped.cases_skipped, 2);
        assert!(stopped.to_text().contains("cases skipped: 2"));
        assert!(stopped.to_string().contains("2 skipped"));
    }

    #[test]
    fn max_cases_and_injection_budget_bound_the_run() {
        let capped = Campaign::new()
            .cases(standard_cases())
            .policy(ExecutionPolicy::run_all().max_cases(2))
            .run(setup, workload);
        assert_eq!(capped.outcomes.len(), 2);
        // max_cases trims up front; the trimmed case was never scheduled.
        assert_eq!(capped.cases_skipped, 0);

        let budgeted = Campaign::new()
            .cases(standard_cases())
            .policy(ExecutionPolicy::run_all().injection_budget(1))
            .run(setup, workload);
        // baseline injects 0, fail-read drains the budget of 1, short-read
        // never runs — and is accounted for as skipped.
        assert_eq!(budgeted.outcomes.len(), 2);
        assert_eq!(budgeted.total_injections(), 1);
        assert_eq!(budgeted.cases_skipped, 1);
    }

    #[test]
    fn injection_budget_is_a_hard_bound_under_parallelism() {
        // Regression test: the budget used to be checked only *after* a case
        // finished, so n concurrent workers could each run a full case and
        // collectively overshoot the budget by up to (n-1) cases' worth of
        // injections.  The budget is now a token pool shared by every case's
        // injector: with 12 cases of 5 injections each (60 available) and a
        // budget of 12, any parallelism degree must land on exactly 12.
        let cases: Vec<TestCase> = (0..12)
            .map(|i| {
                let mut plan = Plan::new().with_seed(42 + i);
                for call in 1..=5 {
                    plan = plan.entry(PlanEntry {
                        function: "read".into(),
                        trigger: Trigger::on_call(call),
                        action: FaultAction::return_value(-1).with_errno(5),
                    });
                }
                TestCase::new(format!("budget-{i:02}"), plan)
            })
            .collect();
        let hammer = |process: &mut Process| {
            for _ in 0..5 {
                let _ = process.call("read", &[3, 0, 8]);
            }
            ExitStatus::Exited(0)
        };
        for workers in [1, 4, 8] {
            let report = Campaign::new()
                .cases(cases.clone())
                .policy(ExecutionPolicy::run_all().injection_budget(12))
                .parallelism(workers)
                .run(setup, hammer);
            assert_eq!(report.total_injections(), 12, "parallelism({workers}) overshot the injection budget");
            assert_eq!(report.outcomes.len() + report.cases_skipped, 12, "every scheduled case is accounted for");
        }
    }

    #[test]
    fn capture_call_log_drains_each_cases_dispatch_stream() {
        let report = Campaign::new().cases(standard_cases()).capture_call_log(true).run(setup, workload);
        // Every case's workload starts with read; the baseline and fail-read
        // cases proceed to malloc, the short-read crash also calls malloc.
        for outcome in &report.outcomes {
            assert_eq!(outcome.calls.first().map(|s| s.as_str()), Some("read"), "{}", outcome.name);
        }
        assert_eq!(report.outcomes[0].calls.len(), 2, "baseline: read + malloc");
        // The per-function call totals ride along in the test log.
        assert_eq!(report.outcomes[1].log.calls_to("read"), 1);
        // Without capture the stream stays empty.
        let quiet = Campaign::new().cases(standard_cases()).run(setup, workload);
        assert!(quiet.outcomes.iter().all(|o| o.calls.is_empty() && o.calls_dropped == 0));

        // A capacity-bounded log surfaces its truncation in the outcome, so
        // consumers never mistake a truncated stream for a complete one.
        let truncated = Campaign::new().case(TestCase::new("tiny-log", Plan::new())).capture_call_log(true).run(
            || {
                let mut process = setup();
                process.state_mut().set_call_log_capacity(1);
                process
            },
            workload,
        );
        assert_eq!(truncated.outcomes[0].calls.len(), 1);
        assert_eq!(truncated.outcomes[0].calls_dropped, 1, "read recorded, malloc dropped");
    }

    #[test]
    fn from_generator_builds_one_case_per_plan_entry() {
        let mut profile = FaultProfile::new("libc.so.6");
        profile.push_function(FunctionProfile {
            name: "read".into(),
            error_returns: vec![ErrorReturn::bare(-1), ErrorReturn::bare(4)],
        });
        profile.push_function(FunctionProfile { name: "malloc".into(), error_returns: vec![ErrorReturn::bare(0)] });
        let campaign =
            Campaign::from_generator(&Filtered::new(Exhaustive).allow(["read"]), std::slice::from_ref(&profile));
        assert_eq!(campaign.case_list().len(), 2);
        assert!(campaign.case_list().iter().all(|c| c.plan.len() == 1));
        assert!(campaign.case_list()[0].name.contains("filtered"));
        assert!(campaign.case_list()[0].name.ends_with("read"));
        // Exhaustive ordinals (call 1, call 2, ...) are re-anchored so each
        // single-fault case injects on its workload's first call.
        assert!(campaign.case_list().iter().all(|c| c.plan.entries[0].trigger.inject_at_call == Some(1)));

        let report = campaign.run(setup, workload);
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.failures().count(), 1); // read() -> -1
        assert_eq!(report.crashes().count(), 1); // read() -> 4 => huge malloc
    }

    #[test]
    fn run_workload_drives_a_named_workload() {
        let report =
            Campaign::new()
                .cases(standard_cases())
                .run_workload(FnWorkload::new("toy-reader", setup, workload));
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.crashes().count(), 1);
    }

    #[test]
    fn start_streams_events_and_reports_progress() {
        let mut run = Campaign::new()
            .cases(standard_cases())
            .start(FnWorkload::new("toy-reader", setup, workload));
        assert_eq!(run.case_count(), 3);
        let events: Vec<CaseEvent> = run.by_ref().collect();
        // 3 Started + 2 Injection + 3 Outcome events, per-case ordering.
        assert_eq!(events.len(), 8);
        assert!(matches!(&events[0], CaseEvent::Started { index: 0, name } if name == "baseline"));
        assert!(matches!(&events[1], CaseEvent::Outcome { index: 0, .. }));
        assert!(matches!(&events[3], CaseEvent::Injection { index: 1, .. }));
        assert!(events.iter().all(|e| !matches!(e, CaseEvent::Skipped { .. })));
        assert_eq!(events[2].index(), 1);
        let progress = run.progress();
        assert_eq!(progress.cases, 3);
        assert_eq!(progress.finished, 3);
        assert_eq!(progress.crashes, 1);
        assert_eq!(progress.injections, 2);
        assert_eq!(progress.skipped, 0);
        assert!(format!("{run:?}").contains("cases: 3"));
        let report = run.into_report();
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report, Campaign::new().cases(standard_cases()).run(setup, workload));
    }

    #[test]
    fn cancelling_a_run_skips_the_unclaimed_cases() {
        // The workload parks on a gate, so the cancel deterministically
        // arrives while case 0 is still in flight.
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let gated_workload = {
            let gate = Arc::clone(&gate);
            move |process: &mut Process| {
                while !gate.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::yield_now();
                }
                workload(process)
            }
        };
        let mut run =
            Campaign::new()
                .cases(standard_cases())
                .start(FnWorkload::new("gated-reader", setup, gated_workload));
        let cancel = run.cancel_handle();
        assert!(!cancel.is_stopping());
        // Consume the first case's Started event, cancel, then open the gate.
        let first = run.next().expect("first event");
        assert!(matches!(first, CaseEvent::Started { index: 0, .. }));
        cancel.clone().cancel();
        assert!(cancel.is_stopping());
        assert!(format!("{cancel:?}").contains("stopping: true"));
        gate.store(true, std::sync::atomic::Ordering::Release);
        let report = run.into_report();
        // The in-flight case finished and was reported; the unclaimed cases
        // surface as skipped.
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.cases_skipped, 2);
        assert_eq!(report.outcomes.len() + report.cases_skipped, 3);
    }

    #[test]
    fn dropping_a_run_mid_stream_releases_its_workers() {
        let mut run = Campaign::new()
            .cases((0..64).map(|i| TestCase::new(format!("case-{i:02}"), Plan::new())))
            .parallelism(4)
            .start(FnWorkload::new("toy-reader", setup, workload));
        let _ = run.next();
        drop(run); // must not hang on the bounded channel
    }

    /// A workload whose health check rejects every case.
    struct Unhealthy;

    impl Workload for Unhealthy {
        fn name(&self) -> &str {
            "unhealthy"
        }

        fn setup(&self, _case: &TestCase) -> lfi_runtime::PooledProcess {
            setup().into()
        }

        fn run(&self, _process: &mut Process) -> ExitStatus {
            unreachable!("health check vetoes every case")
        }

        fn health_check(&self, _process: &mut Process) -> bool {
            false
        }
    }

    #[test]
    #[should_panic(expected = "workload bug")]
    fn worker_panics_propagate_to_the_blocking_caller() {
        // A panicking Workload hook must surface like it did under the old
        // inline driver — never a silently truncated report.
        let _ = Campaign::new()
            .cases(standard_cases())
            .run(setup, |_process: &mut Process| panic!("workload bug"));
    }

    #[test]
    #[should_panic(expected = "workload bug")]
    fn worker_panics_propagate_to_the_streaming_consumer() {
        let run =
            Campaign::new()
                .cases(standard_cases())
                .start(FnWorkload::new("buggy", setup, |_process: &mut Process| panic!("workload bug")));
        for _ in run {}
    }

    #[test]
    fn health_check_vetoes_surface_as_unhealthy_skips() {
        let mut run = Campaign::new().cases(standard_cases()).start(Unhealthy);
        let events: Vec<CaseEvent> = run.by_ref().collect();
        assert_eq!(events.len(), 6, "Started + Skipped per case");
        assert!(
            events
                .iter()
                .filter(|e| matches!(e, CaseEvent::Skipped { reason: SkipReason::Unhealthy, .. }))
                .count()
                == 3
        );
        let report = run.into_report();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.cases_skipped, 3);
    }
}
