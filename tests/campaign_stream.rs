//! Integration coverage for the streaming campaign session: `CaseEvent`
//! ordering and determinism, mid-run cancellation at several parallelism
//! degrees, the Workload hook contract, which threads execute cases, and
//! the blocking wrappers' equivalence with the stream they wrap.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use lfi::controller::{
    Campaign, CampaignObserver, CaseEvent, ExecutionPolicy, FnWorkload, InjectionRecord, SkipReason, TestCase,
    TestOutcome, Workload, WorkloadRegistry,
};
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};

fn setup() -> Process {
    let mut process = Process::new();
    process.load(
        NativeLibrary::builder("libc.so.6")
            .function("read", |ctx| ctx.arg(2))
            .function("malloc", |ctx| if ctx.arg(0) > 1 << 30 { 0 } else { 0x1000 })
            .build(),
    );
    process
}

/// Read a header, allocate accordingly; a short read provokes a fatal
/// allocation failure (SIGABRT), a failed read exits cleanly with 1.
fn workload(process: &mut Process) -> ExitStatus {
    let header = process.call("read", &[3, 0, 8]).unwrap_or(-1);
    if header < 0 {
        return ExitStatus::Exited(1);
    }
    let size = if header == 8 { 64 } else { 1 << 40 };
    if process.call("malloc", &[size]).unwrap_or(0) == 0 {
        return ExitStatus::Crashed(Signal::Abort);
    }
    ExitStatus::Exited(0)
}

/// `count` cases mixing clean runs, random-trigger failures and one crash.
fn mixed_cases(count: usize) -> Vec<TestCase> {
    (0..count)
        .map(|i| {
            let plan = match i % 4 {
                0 => Plan::new(),
                1 => Plan::new().with_seed(100 + i as u64).entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::with_probability(0.5),
                    action: FaultAction::return_value(-1).with_errno(5),
                }),
                2 => Plan::new().entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::on_call(1),
                    action: FaultAction::return_value(-1).with_errno(5),
                }),
                _ => Plan::new().entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::on_call(1),
                    action: FaultAction::return_value(4),
                }),
            };
            TestCase::new(format!("case-{i:02}"), plan)
        })
        .collect()
}

fn stream_events(campaign: Campaign) -> Vec<CaseEvent> {
    campaign.start(FnWorkload::new("mixed-reader", setup, workload)).collect()
}

#[test]
fn serial_event_stream_is_byte_identical_across_reruns() {
    let build = || Campaign::new().cases(mixed_cases(12)).parallelism(1);
    let first = stream_events(build());
    let second = stream_events(build());
    assert_eq!(first, second, "fixed seeds + one worker => identical event sequences");
    // And the per-case ordering contract holds: Started, Injection*, Outcome.
    let mut last_started = None;
    for event in &first {
        match event {
            CaseEvent::Started { index, .. } => {
                assert_eq!(Some(*index), last_started.map(|i: usize| i + 1).or(Some(0)));
                last_started = Some(*index);
            }
            CaseEvent::Injection { index, .. } | CaseEvent::Outcome { index, .. } => {
                assert_eq!(Some(*index), last_started, "case events follow their own Started");
            }
            CaseEvent::Skipped { .. } => unreachable!("nothing halts this run"),
        }
    }
    assert_eq!(first.iter().filter(|e| matches!(e, CaseEvent::Outcome { .. })).count(), 12);
}

#[test]
fn serial_event_stream_is_deterministic_under_stop_on_first_crash() {
    let build = || {
        Campaign::new()
            .cases(mixed_cases(12))
            .policy(ExecutionPolicy::run_all().stop_on_first_crash())
            .parallelism(1)
    };
    let first = stream_events(build());
    let second = stream_events(build());
    assert_eq!(first, second, "the halt point is part of the deterministic stream");
    // Case 3 is the first crash; cases 4.. surface as CrashHalt skips, in
    // ascending order, after the executed prefix.
    let crash_at = first
        .iter()
        .position(|e| matches!(e, CaseEvent::Outcome { outcome, .. } if outcome.status.is_crash()))
        .expect("one case crashes");
    let skips: Vec<usize> = first
        .iter()
        .filter_map(|e| match e {
            CaseEvent::Skipped { index, reason, .. } => {
                assert_eq!(*reason, SkipReason::CrashHalt);
                Some(*index)
            }
            _ => None,
        })
        .collect();
    assert_eq!(skips, (4..12).collect::<Vec<_>>());
    assert!(
        first[crash_at..].iter().all(|e| !matches!(e, CaseEvent::Started { .. })),
        "nothing starts after the crash"
    );
}

#[test]
fn cancellation_mid_run_leaves_a_consistent_report_at_any_parallelism() {
    for workers in [1usize, 4, 8] {
        // Far more cases than the bounded channel can buffer: backpressure
        // guarantees unclaimed cases remain when the cancel lands.
        let total = 48;
        let mut run = Campaign::new().cases(mixed_cases(total)).parallelism(workers).start(FnWorkload::new(
            "mixed-reader",
            setup,
            workload,
        ));
        let cancel = run.cancel_handle();
        // Consume events until a handful of outcomes arrived, then cancel.
        let mut outcomes_seen = 0;
        for event in run.by_ref() {
            if matches!(event, CaseEvent::Outcome { .. }) {
                outcomes_seen += 1;
                if outcomes_seen == 3 {
                    cancel.cancel();
                    break;
                }
            }
        }
        let report = run.into_report();
        // Consistency: every scheduled case is either an outcome or skipped,
        // outcomes stay in case order, and nothing is double-counted.
        assert_eq!(report.outcomes.len() + report.cases_skipped, total, "parallelism({workers})");
        assert!(report.outcomes.len() >= 3, "parallelism({workers}) reported the in-flight outcomes");
        assert!(report.cases_skipped > 0, "parallelism({workers}) skipped the tail");
        let mut names: Vec<usize> = report
            .outcomes
            .iter()
            .map(|o| o.name.trim_start_matches("case-").parse::<usize>().unwrap())
            .collect();
        let sorted = {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted
        };
        assert_eq!(names, sorted, "parallelism({workers}) outcomes are slot-ordered");
        names.dedup();
        assert_eq!(names.len(), report.outcomes.len(), "parallelism({workers}) no duplicate outcomes");
        assert!(report.to_text().contains(&format!("cases skipped: {}", report.cases_skipped)));
    }
}

#[test]
fn cancel_handle_is_idempotent_and_inert_after_drain() {
    // Double-cancel mid-run: the second call is a no-op, the report is as
    // consistent as after a single cancel.
    let mut run =
        Campaign::new()
            .cases(mixed_cases(48))
            .parallelism(4)
            .start(FnWorkload::new("mixed-reader", setup, workload));
    let cancel = run.cancel_handle();
    let mut outcomes_seen = 0;
    let mut cancelled_skips = 0;
    for event in run.by_ref() {
        match event {
            CaseEvent::Outcome { .. } => {
                outcomes_seen += 1;
                if outcomes_seen == 3 {
                    cancel.cancel();
                    cancel.cancel(); // idempotent: already-cancelled is a no-op
                }
            }
            CaseEvent::Skipped { reason, .. } => {
                assert_eq!(reason, SkipReason::Cancelled);
                cancelled_skips += 1;
            }
            _ => {}
        }
    }
    // Cancelling again after the stream drained changes nothing either.
    cancel.cancel();
    let report = run.into_report();
    assert_eq!(report.outcomes.len() + report.cases_skipped, 48);
    assert!(report.cases_skipped > 0, "the tail was skipped");
    assert_eq!(report.cases_skipped, cancelled_skips, "every skip carried SkipReason::Cancelled exactly once");

    // Cancel after the stream already drained naturally: the handle
    // outlives the run's work and stays inert — no skips appear.
    let mut run = Campaign::new()
        .cases(mixed_cases(6))
        .start(FnWorkload::new("mixed-reader", setup, workload));
    let cancel = run.cancel_handle();
    for _ in run.by_ref() {}
    cancel.cancel();
    cancel.cancel();
    let report = run.into_report();
    assert_eq!(report.outcomes.len(), 6);
    assert_eq!(report.cases_skipped, 0, "cancel after drain skips nothing");
}

#[test]
fn blocking_run_equals_the_collected_stream() {
    let blocking = Campaign::new().cases(mixed_cases(10)).run(setup, workload);
    let streamed = Campaign::new()
        .cases(mixed_cases(10))
        .start(FnWorkload::new("mixed-reader", setup, workload))
        .into_report();
    assert_eq!(blocking, streamed);

    // The events the stream yielded reassemble into the same outcomes.
    let events = stream_events(Campaign::new().cases(mixed_cases(10)));
    let outcomes: Vec<_> = events
        .into_iter()
        .filter_map(|e| match e {
            CaseEvent::Outcome { outcome, .. } => Some(outcome),
            _ => None,
        })
        .collect();
    assert_eq!(outcomes, blocking.outcomes);
}

/// Shared hook counters, cloneable into the per-run workload objects.
#[derive(Default)]
struct HookCounters {
    teardowns: AtomicUsize,
    setups: AtomicUsize,
    veto_marked: AtomicBool,
}

/// A workload that records its hook sequence and vetoes marked cases.
#[derive(Clone)]
struct HookRecorder {
    counters: Arc<HookCounters>,
}

impl Workload for HookRecorder {
    fn name(&self) -> &str {
        "hook-recorder"
    }

    fn setup(&self, _case: &TestCase) -> lfi::runtime::PooledProcess {
        self.counters.setups.fetch_add(1, Ordering::SeqCst);
        setup().into()
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        workload(process)
    }

    fn teardown(&self, _process: &mut Process) {
        self.counters.teardowns.fetch_add(1, Ordering::SeqCst);
    }

    fn health_check(&self, process: &mut Process) -> bool {
        // Passive resolution check plus the veto switch.
        process.fnptr("read").is_ok() && !self.counters.veto_marked.load(Ordering::SeqCst)
    }
}

#[test]
fn workload_hooks_fire_in_contract_order() {
    let counters = Arc::new(HookCounters::default());
    let recorder = HookRecorder { counters: Arc::clone(&counters) };
    let report = Campaign::new().cases(mixed_cases(6)).run_workload(recorder.clone());
    assert_eq!(report.outcomes.len(), 6);
    assert_eq!(counters.setups.load(Ordering::SeqCst), 6);
    assert_eq!(counters.teardowns.load(Ordering::SeqCst), 6, "teardown once per executed case");

    // Flip the veto: every case is set up, health-checked and skipped —
    // teardown never fires for unexecuted cases.
    counters.setups.store(0, Ordering::SeqCst);
    counters.teardowns.store(0, Ordering::SeqCst);
    counters.veto_marked.store(true, Ordering::SeqCst);
    let vetoed = Campaign::new().cases(mixed_cases(4)).run_workload(recorder);
    assert!(vetoed.outcomes.is_empty());
    assert_eq!(vetoed.cases_skipped, 4);
    assert_eq!(counters.setups.load(Ordering::SeqCst), 4);
    assert_eq!(counters.teardowns.load(Ordering::SeqCst), 0);
}

#[test]
fn registry_workloads_drive_streaming_sessions() {
    let mut registry = WorkloadRegistry::new();
    registry.register(FnWorkload::new("mixed-reader", setup, workload));
    let shared = registry.get("mixed-reader").expect("registered");
    let report = Campaign::new().cases(mixed_cases(8)).parallelism(2).start_arc(shared).into_report();
    assert_eq!(report.outcomes.len(), 8);
    assert_eq!(report.crashes().count(), 2, "cases 3 and 7 crash");

    // The apps registry plugs into the same session API.
    let apps = lfi::apps::workloads::registry();
    assert!(apps.names().count() >= 4);
    let pidgin = apps.get("pidgin-login").expect("shipped");
    let clean = Campaign::new()
        .case(TestCase::new("clean-login", Plan::new()))
        .start_arc(pidgin)
        .into_report();
    assert!(clean.outcomes[0].status.is_success());
}

#[test]
fn progress_counters_track_the_stream() {
    let mut run = Campaign::new()
        .cases(mixed_cases(12))
        .start(FnWorkload::new("mixed-reader", setup, workload));
    assert_eq!(run.case_count(), 12);
    for _ in run.by_ref() {}
    let progress = run.progress();
    assert_eq!(progress.cases, 12);
    assert_eq!(progress.started, 12);
    assert_eq!(progress.finished, 12);
    assert_eq!(progress.skipped, 0);
    assert_eq!(progress.crashes, 3, "cases 3, 7 and 11 crash");
    let report = run.into_report();
    assert_eq!(progress.injections, report.total_injections());
}

/// One hook call: the hook, and the id and name of the thread it ran on.
type Hook = (&'static str, ThreadId, Option<String>);

/// Records the thread behind every workload and observer hook.
#[derive(Clone, Default)]
struct Placement {
    hooks: Arc<Mutex<Vec<Hook>>>,
}

impl Placement {
    fn record(&self, hook: &'static str) {
        let thread = std::thread::current();
        self.hooks.lock().unwrap().push((hook, thread.id(), thread.name().map(str::to_owned)));
    }

    fn hooks(&self) -> Vec<Hook> {
        self.hooks.lock().unwrap().clone()
    }

    /// Asserts every workload and observer hook ran on the calling thread.
    fn assert_all_on_this_thread(&self) {
        let hooks = self.hooks();
        for hook in ["setup", "run", "on_test_start", "on_injection", "on_outcome", "should_halt"] {
            assert!(hooks.iter().any(|(name, ..)| *name == hook), "{hook} fired");
        }
        let here = std::thread::current().id();
        for (hook, thread, name) in hooks {
            assert_eq!(thread, here, "{hook} ran on {name:?}, not the calling thread");
        }
    }
}

impl Workload for Placement {
    fn name(&self) -> &str {
        "placement"
    }

    fn setup(&self, _case: &TestCase) -> lfi::runtime::PooledProcess {
        self.record("setup");
        setup().into()
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        self.record("run");
        workload(process)
    }

    fn teardown(&self, _process: &mut Process) {
        self.record("teardown");
    }
}

impl CampaignObserver for Placement {
    fn on_test_start(&self, _case: &TestCase) {
        self.record("on_test_start");
    }

    fn on_injection(&self, _case: &TestCase, _record: &InjectionRecord) {
        self.record("on_injection");
    }

    fn on_outcome(&self, _outcome: &TestOutcome) {
        self.record("on_outcome");
    }

    fn should_halt(&self, _outcome: &TestOutcome) -> bool {
        self.record("should_halt");
        false
    }
}

#[test]
fn serial_sessions_run_every_case_on_the_calling_thread() {
    // The blocking closure-pair entry point.
    let placement = Placement::default();
    let (on_setup, on_run) = (placement.clone(), placement.clone());
    let report = Campaign::new().cases(mixed_cases(8)).observer(placement.clone()).run(
        move || {
            on_setup.record("setup");
            setup()
        },
        move |process: &mut Process| {
            on_run.record("run");
            workload(process)
        },
    );
    assert_eq!(report.outcomes.len(), 8);
    placement.assert_all_on_this_thread();

    // An iterated stream over a Workload object.
    let placement = Placement::default();
    let run = Campaign::new()
        .cases(mixed_cases(8))
        .parallelism(1)
        .observer(placement.clone())
        .start(placement.clone());
    assert_eq!(run.filter(|event| matches!(event, CaseEvent::Outcome { .. })).count(), 8);
    placement.assert_all_on_this_thread();
}

#[test]
fn parallel_sessions_spawn_one_helper_fewer_than_their_parallelism() {
    const WORKERS: usize = 4;
    const HELPERS: usize = WORKERS - 1;
    // Every case waits until HELPERS distinct helper threads are inside a
    // workload run at once, so each helper provably exists and takes a
    // case.  A missing helper fails the wait instead of hanging the test.
    let arrived = Arc::new((Mutex::new(HashSet::<ThreadId>::new()), Condvar::new()));
    let placement = Placement::default();
    let recorder = placement.clone();
    let rendezvous = Arc::clone(&arrived);
    let report =
        Campaign::new()
            .cases(mixed_cases(32))
            .parallelism(WORKERS)
            .run(setup, move |process: &mut Process| {
                recorder.record("run");
                let thread = std::thread::current();
                let (lock, wake) = &*rendezvous;
                let mut helpers = lock.lock().unwrap();
                if thread.name().is_some_and(|name| name.starts_with("lfi-campaign-")) {
                    helpers.insert(thread.id());
                    wake.notify_all();
                }
                let (helpers, _) = wake
                    .wait_timeout_while(helpers, Duration::from_secs(60), |helpers| helpers.len() < HELPERS)
                    .unwrap();
                assert_eq!(helpers.len(), HELPERS, "{HELPERS} helpers reached the rendezvous");
                drop(helpers);
                workload(process)
            });
    assert_eq!(report.outcomes.len(), 32);

    let here = std::thread::current().id();
    let hooks = placement.hooks();
    let executors: HashSet<ThreadId> = hooks.iter().map(|(_, thread, _)| *thread).collect();
    assert!(executors.len() <= WORKERS, "{} threads executed cases", executors.len());
    let mut helper_names: Vec<String> = hooks
        .iter()
        .filter(|(_, thread, _)| *thread != here)
        .map(|(_, _, name)| name.clone().unwrap_or_default())
        .collect();
    helper_names.sort();
    helper_names.dedup();
    assert_eq!(helper_names, ["lfi-campaign-1", "lfi-campaign-2", "lfi-campaign-3"]);
}

#[test]
#[should_panic(expected = "workload bug")]
fn helper_panics_propagate_to_the_streaming_consumer() {
    // Only helpers panic, and the consumer's own cases wait until one has,
    // so the payload that surfaces is a helper's: the consumer re-raises it
    // when it joins the helpers.
    let panicked = Arc::new((Mutex::new(false), Condvar::new()));
    let buggy = move |process: &mut Process| {
        let (lock, wake) = &*panicked;
        if std::thread::current().name().is_some_and(|name| name.starts_with("lfi-campaign-")) {
            *lock.lock().unwrap() = true;
            wake.notify_all();
            panic!("workload bug");
        }
        let guard = lock.lock().unwrap();
        drop(wake.wait_timeout_while(guard, Duration::from_secs(60), |panicked| !*panicked).unwrap());
        workload(process)
    };
    let run = Campaign::new()
        .cases(mixed_cases(16))
        .parallelism(4)
        .start(FnWorkload::new("buggy", setup, buggy));
    for _ in run {}
}
