//! The benchmark's view into the `controller` and `runtime` layers: a
//! [`Workload`] wrapper that delegates to the application under test and
//! times its `setup` and `run`, and a [`CampaignObserver`] that closes each
//! case.
//!
//! A case is timed from the wrapper's `setup` — the first hook a campaign
//! calls, before it compiles the case's plan and synthesizes the
//! interceptor — to the observer's `on_outcome` (or, where no observer can
//! be attached, as inside fabric leases, the wrapper's `teardown`, which
//! runs right after the injection log is drained).  `on_test_start` fires
//! only after the plan compile, so starting there would hide the cost the
//! `sweep` workload exists to expose.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use lfi::controller::{CampaignObserver, InjectionRecord, TestCase, TestOutcome, Workload};
use lfi::runtime::{ExitStatus, PooledProcess, Process};

use crate::trace::{Timer, Tracer, ROOT};

/// The case a worker thread is executing: when its setup began and its
/// span.  A campaign runs each case's hooks on one worker thread.
#[derive(Clone, Copy)]
struct InFlight {
    started: Instant,
    span: Timer,
    op: u32,
}

thread_local! {
    static CASE: Cell<Option<InFlight>> = const { Cell::new(None) };
}

/// Shared counters and clocks of every case the wrapped workloads run.
#[derive(Debug)]
pub struct Probe {
    tracer: Arc<Tracer>,
    /// Span the next cases are children of (a batch or session span).
    parent: AtomicU32,
    /// Op the next cases belong to; [`ROOT`] makes every case its own op.
    op: AtomicU32,
    cases: AtomicU64,
    injections: AtomicU64,
    /// Case latencies in milliseconds, in completion order.
    latencies: Mutex<Vec<f64>>,
}

impl Probe {
    pub fn new(tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(Self {
            tracer,
            parent: AtomicU32::new(ROOT),
            op: AtomicU32::new(ROOT),
            cases: AtomicU64::new(0),
            injections: AtomicU64::new(0),
            latencies: Mutex::new(Vec::new()),
        })
    }

    /// Makes the next cases children of span `parent` in op `op`.
    pub fn enter(&self, parent: u32, op: u32) {
        self.parent.store(parent, Ordering::Relaxed);
        self.op.store(op, Ordering::Relaxed);
    }

    /// Zeroes the counters and drops the recorded latencies.
    pub fn reset(&self) {
        self.cases.store(0, Ordering::Relaxed);
        self.injections.store(0, Ordering::Relaxed);
        self.take_latencies();
    }

    /// Cases closed since the last reset.
    pub fn cases(&self) -> u64 {
        self.cases.load(Ordering::Relaxed)
    }

    /// Injections reported to the observer since the last reset.
    pub fn injections(&self) -> u64 {
        self.injections.load(Ordering::Relaxed)
    }

    /// Takes the case latencies recorded so far.
    pub fn take_latencies(&self) -> Vec<f64> {
        std::mem::take(&mut *self.latencies.lock().expect("a case closer panicked"))
    }

    fn open_case(&self, op: Option<u32>) -> InFlight {
        let started = Instant::now();
        let span = self.tracer.start_at(started);
        let op = op.unwrap_or_else(|| match self.op.load(Ordering::Relaxed) {
            ROOT => span.id,
            op => op,
        });
        let case = InFlight { started, span, op };
        CASE.with(|slot| slot.set(Some(case)));
        case
    }

    fn close_case(&self) {
        let Some(case) = CASE.with(Cell::take) else { return };
        let ended = Instant::now();
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer.finish_at(case.span, "controller.case", parent, case.op, ended);
        self.cases.fetch_add(1, Ordering::Relaxed);
        let latency = ended.duration_since(case.started).as_secs_f64() * 1e3;
        self.latencies.lock().expect("a case closer panicked").push(latency);
    }
}

impl CampaignObserver for Probe {
    fn on_injection(&self, _case: &TestCase, _record: &InjectionRecord) {
        self.injections.fetch_add(1, Ordering::Relaxed);
    }

    fn on_outcome(&self, _outcome: &TestOutcome) {
        self.close_case();
    }
}

/// Delegates to an application workload, timing `runtime.setup` and
/// `runtime.run` as children of the case span.
pub struct Traced {
    name: String,
    inner: Arc<dyn Workload>,
    probe: Arc<Probe>,
    /// Fixed op for every case (a fabric job); `None` follows the probe.
    op: Option<u32>,
    /// Close cases at `teardown` (no observer sees these cases).
    close_at_teardown: bool,
    /// Cases wait in `setup` until this opens (see [`Traced::for_job`]).
    gate: Option<(Mutex<bool>, Condvar)>,
    first_setup: OnceLock<Instant>,
}

impl Traced {
    /// Wraps `inner` for campaigns that attach `probe` as an observer.
    pub fn observed(inner: Arc<dyn Workload>, probe: Arc<Probe>) -> Arc<Self> {
        let name = inner.name().to_owned();
        let first_setup = OnceLock::new();
        Arc::new(Self { name, inner, probe, op: None, close_at_teardown: false, gate: None, first_setup })
    }

    /// Wraps `inner` under its own registry name for one fabric job, whose
    /// leases run campaigns this benchmark cannot observe.  Its cases wait
    /// until [`Traced::open`]: the job is submitted over the wire and then
    /// journaled, and the journal replays exactly only when no lease was
    /// acked before it was attached (`FabricHandle::journal_job`).
    pub fn for_job(name: String, inner: Arc<dyn Workload>, probe: Arc<Probe>, op: u32) -> Arc<Self> {
        let gate = Some((Mutex::new(false), Condvar::new()));
        Arc::new(Self { name, inner, probe, op: Some(op), close_at_teardown: true, gate, first_setup: OnceLock::new() })
    }

    /// Lets the cases of a [`Traced::for_job`] wrapper run.
    pub fn open(&self) {
        if let Some((open, opened)) = &self.gate {
            *open.lock().expect("a gated case panicked") = true;
            opened.notify_all();
        }
    }

    /// When the first case's setup began.
    pub fn first_setup(&self) -> Option<Instant> {
        self.first_setup.get().copied()
    }
}

impl Workload for Traced {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&self, case: &TestCase) -> PooledProcess {
        if let Some((open, opened)) = &self.gate {
            let guard = open.lock().expect("the gate opener panicked");
            drop(opened.wait_while(guard, |open| !*open).expect("the gate opener panicked"));
        }
        let open = self.probe.open_case(self.op);
        self.first_setup.get_or_init(|| open.started);
        let tracer = &self.probe.tracer;
        let timer = tracer.start_at(open.started);
        let process = self.inner.setup(case);
        tracer.finish(timer, "runtime.setup", open.span.id, open.op);
        process
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        let tracer = &self.probe.tracer;
        let timer = tracer.start();
        let status = self.inner.run(process);
        if let Some(case) = CASE.with(Cell::get) {
            tracer.finish(timer, "runtime.run", case.span.id, case.op);
        }
        status
    }

    fn teardown(&self, process: &mut Process) {
        self.inner.teardown(process);
        if self.close_at_teardown {
            self.probe.close_case();
        }
    }

    fn health_check(&self, process: &mut Process) -> bool {
        self.inner.health_check(process)
    }
}
