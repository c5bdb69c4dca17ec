//! `sweep`: one campaign session per app in turn (`pidgin-login`,
//! `apache-static`, `mysql-suite`) at parallelism 2.  Every case carries its
//! own §6.1-style `Random` plan over the full libc-1535 profile, seeded per
//! case.  An op is one case, timed by the probe from the workload's `setup`
//! to the observer's `on_outcome`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lfi::apps::{ApacheLoad, MysqlSuite, PidginLogin, RequestKind};
use lfi::controller::{Campaign, CaseEvent, TestCase, Workload};
use lfi::corpus::{build_kernel, build_libc};
use lfi::isa::Platform;
use lfi::profile::FaultProfile;
use lfi::profiler::{ProfilerOptions, ProfilingStats};
use lfi::runtime::ExitStatus;
use lfi::scenario::{Random, ScenarioGenerator};
use lfi::Lfi;

use crate::inputs::sweep_case_seed;
use crate::probe::{Probe, Traced};
use crate::stats::{mean, median};
use crate::trace::{Breakdown, Tracer, ROOT};
use crate::{metric, profiler_metrics, time_status, Bench, Metric, Phase};

/// The apps, in session order.
const APPS: [&str; 3] = ["pidgin-login", "apache-static", "mysql-suite"];
/// Requests per `apache-static` case.
const APACHE_REQUESTS: u64 = 8;
/// Test cases per `mysql-suite` case.
const MYSQL_CASES: usize = 2;
/// Cases per session.
const CASES: u64 = 24;
const PARALLELISM: usize = 2;
/// Per-call fault probability of the random plans (§6.1's MySQL run).
const PROBABILITY: f64 = 0.05;

/// The seed whose outcome digests are recorded below.
const DIGEST_SEED: u64 = 1;
/// FNV-1a over (case, status, injections) of each app's first session at
/// [`DIGEST_SEED`], in [`APPS`] order.
const RECORDED_DIGESTS: [u64; 3] = [0x48f4_1b48_cf97_bf43, 0x88ac_88c2_ac58_6efd, 0xf997_221b_c101_7366];

/// The apps, in [`APPS`] order, sized so one case costs a few
/// milliseconds: app work stays beside, not over, the per-case costs.
fn app_workloads() -> Vec<Arc<dyn Workload>> {
    vec![
        Arc::new(PidginLogin::new()),
        Arc::new(ApacheLoad::new(RequestKind::StaticHtml, APACHE_REQUESTS)),
        Arc::new(MysqlSuite::with_cases(MYSQL_CASES)),
    ]
}

struct App {
    inner: Arc<dyn Workload>,
    traced: Arc<dyn Workload>,
}

/// A crash to replay after the timed phase.
struct Crash {
    app: usize,
    case: TestCase,
    status: ExitStatus,
}

pub struct Sweep {
    seed: u64,
    libc: FaultProfile,
    apps: Vec<App>,
    probe: Arc<Probe>,
    tracer: Arc<Tracer>,
    /// The set-up's profiling of libc.
    profiling: ProfilingStats,
    sessions: u64,
    digests: [u64; 3],
    /// Set when the default seed's digests differ from the recorded ones.
    digest_error: Option<String>,
    /// Counts of the last phase.
    entries: Vec<f64>,
    cases: u64,
    injections: u64,
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |hash, &byte| (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3))
}

impl Sweep {
    /// Runs session `session` (app `session % 3`), checking its stream.
    fn session(&mut self, phase: &mut Phase, crashes: &mut Vec<Crash>) {
        let app = (self.sessions % APPS.len() as u64) as usize;
        let session = self.sessions;
        self.sessions += 1;
        let tracer = &*self.tracer;
        let started = Instant::now();
        let session_span = tracer.start_at(started);
        let mut cases = Vec::with_capacity(CASES as usize);
        let mut names = Vec::with_capacity(CASES as usize);
        for index in 0..CASES {
            let timer = tracer.start();
            let plan = Random::new(PROBABILITY, sweep_case_seed(self.seed, session, index))
                .expect("a valid probability")
                .generate(std::slice::from_ref(&self.libc));
            tracer.finish(timer, "scenario.generate", session_span.id, ROOT);
            if tracer.enabled() {
                self.entries.push(plan.entries.len() as f64);
            }
            names.push(format!("{}-{session}-{index}", APPS[app]));
            cases.push(TestCase::new(names[names.len() - 1].clone(), plan));
        }
        self.probe.enter(session_span.id, ROOT);
        let mut run = Campaign::new()
            .cases(cases)
            .parallelism(PARALLELISM)
            .observer_arc(self.probe.clone())
            .start_arc(self.apps[app].traced.clone());
        let mut injections = vec![0usize; names.len()];
        let mut outcomes = 0;
        let mut digest = 0xCBF2_9CE4_8422_2325;
        let mut ordered: Vec<Option<(ExitStatus, usize)>> = vec![None; names.len()];
        phase.attempted += CASES;
        while let Some(event) = run.next() {
            match event {
                CaseEvent::Injection { index, .. } => injections[index] += 1,
                CaseEvent::Outcome { index, outcome } => {
                    phase.status_ms.push(time_status(|| run.snapshot()));
                    outcomes += 1;
                    if injections[index] != outcome.injection_count() {
                        phase.failed += 1;
                        phase.errors.push(format!(
                            "{}: {} injection events, outcome counts {}",
                            outcome.name,
                            injections[index],
                            outcome.injection_count()
                        ));
                    }
                    if outcome.status.is_crash() {
                        crashes.push(Crash {
                            app,
                            case: TestCase::new(outcome.name.clone(), outcome.replay.clone()),
                            status: outcome.status,
                        });
                    }
                    ordered[index] = Some((outcome.status, outcome.injection_count()));
                }
                CaseEvent::Skipped { name, reason, .. } => {
                    phase.failed += 1;
                    phase.errors.push(format!("{name}: skipped ({reason:?})"));
                }
                CaseEvent::Started { .. } => {}
            }
        }
        tracer.finish(session_span, "controller.session", ROOT, ROOT);
        phase.rates.push(outcomes as f64 / started.elapsed().as_secs_f64());
        if outcomes != names.len() {
            phase
                .errors
                .push(format!("session {session}: {outcomes} outcomes for {} cases", names.len()));
        }
        if session < APPS.len() as u64 {
            for (name, result) in names.iter().zip(&ordered) {
                digest = fnv1a(digest, format!("{name}|{result:?};").as_bytes());
            }
            self.digests[app] = digest;
        }
    }
}

impl Bench for Sweep {
    const WHY: &'static str = "campaign sessions at parallelism 2 over 3 apps, a ~1530-entry random plan per case: \
                               per-case plan compile and dispatch dominate; tail p90 of ~11000 cases";

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Result<Self, String> {
        let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
        lfi.add_library(build_libc(Platform::LinuxX86).compiled.object);
        lfi.set_kernel(build_kernel(Platform::LinuxX86));
        let report = lfi.profile("libc.so.6").map_err(|error| error.to_string())?;
        let probe = Probe::new(tracer.clone());
        let apps = app_workloads()
            .into_iter()
            .map(|inner| App { traced: Traced::observed(inner.clone(), probe.clone()), inner })
            .collect();
        let stats = report.stats;
        let mut sweep = Sweep {
            seed,
            libc: report.profile,
            apps,
            probe,
            tracer: tracer.clone(),
            profiling: stats,
            sessions: 0,
            digests: [0; 3],
            digest_error: None,
            entries: Vec::new(),
            cases: 0,
            injections: 0,
        };
        // Warm-up: one session per app fills each app's process arena.
        let mut warm = Phase::default();
        for _ in 0..APPS.len() {
            sweep.session(&mut warm, &mut Vec::new());
        }
        if let Some(error) = warm.errors.first() {
            return Err(format!("warm-up: {error}"));
        }
        if seed == DIGEST_SEED && sweep.digests != RECORDED_DIGESTS {
            sweep.digest_error =
                Some(format!("outcome digests {:x?} differ from the recorded {RECORDED_DIGESTS:x?}", sweep.digests));
        }
        Ok(sweep)
    }

    fn measure(&mut self, span: Duration) -> Phase {
        let mut phase = Phase::default();
        phase.errors.extend(self.digest_error.clone());
        let mut crashes = Vec::new();
        self.probe.reset();
        self.entries.clear();
        let started = Instant::now();
        while started.elapsed() < span {
            self.session(&mut phase, &mut crashes);
        }
        phase.op_ms = self.probe.take_latencies();
        self.cases = self.probe.cases();
        self.injections = self.probe.injections();
        // Replay every crash, outside the timed phase.
        for crash in &crashes {
            let report = Campaign::new().case(crash.case.clone()).start_arc(self.apps[crash.app].inner.clone());
            let report = report.into_report();
            let replayed = report.outcomes.first().map(|outcome| outcome.status);
            if replayed != Some(crash.status) {
                phase.failed += 1;
                phase
                    .errors
                    .push(format!("{}: crashed with {:?}, replay gave {replayed:?}", crash.case.name, crash.status));
            }
        }
        eprintln!("sweep: {} sessions, {} crashes replayed", self.sessions, crashes.len());
        phase
    }

    fn layers(&self, breakdown: &Breakdown) -> Vec<Metric> {
        let med = |values: &[f64]| median(values).unwrap_or(0.0);
        let mut metrics = profiler_metrics(self.profiling.duration.as_secs_f64() * 1e3, &[self.profiling]);
        metrics.extend([
            metric("scenario.generate_ms", med(breakdown.wall("scenario.generate")), "ms"),
            metric("scenario.entries_per_plan", mean(&self.entries).unwrap_or(0.0), "count"),
            metric("controller.case_self_ms", med(breakdown.self_time("controller.case")), "ms"),
            metric("controller.sessions_per_op", 1.0 / CASES as f64, "count"),
            metric("controller.injections_per_case", self.injections as f64 / self.cases.max(1) as f64, "count"),
            metric("runtime.setup_ms", med(breakdown.wall("runtime.setup")), "ms"),
            metric("runtime.run_ms", med(breakdown.wall("runtime.run")), "ms"),
        ]);
        metrics
    }
}
