//! `hunt`: a closed loop with one client.  Each op is one complete bug hunt
//! on a seed-generated target — a fresh `Lfi` profiles a libc variant,
//! explores its exhaustive fault space with `halt_on_crash`, and journals
//! every batch — timed until the planted crash cluster appears.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfi::controller::{FnWorkload, Workload};
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::isa::Platform;
use lfi::objfile::SharedObject;
use lfi::profiler::{ProfilerOptions, ProfilingStats};
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::{Exhaustive, FaultCell};
use lfi::store::ExplorationJournal;
use lfi::Lfi;

use crate::inputs::{hunt_shapes, plant, HuntShape};
use crate::probe::{Probe, Traced};
use crate::stats::{mean, median};
use crate::trace::{Breakdown, Tracer, ROOT};
use crate::{metric, profiler_metrics, time_status, Bench, Metric, Phase, WORK_DIR};

const LIBC: &str = "libc.so.6";
/// Targets per seed; ops cycle through them.
const TARGETS: usize = 24;
/// Chunks of the run whose median throughput is `ops_per_s`.
const RATE_CHUNKS: usize = 10;

struct Target {
    shape: HuntShape,
    object: SharedObject,
    planted: FaultCell,
    workload: Arc<dyn Workload>,
}

/// Counts one hunt reports, for the per-layer metrics.
struct HuntCounts {
    batches: u64,
    cases: u64,
    appended_bytes: u64,
    profiling: ProfilingStats,
}

pub struct Hunt {
    kernel: SharedObject,
    targets: Vec<Target>,
    tracer: Arc<Tracer>,
    probe: Arc<Probe>,
    dir: PathBuf,
    next_op: usize,
    /// Counts of the last phase's ops, in op order.
    counts: Vec<HuntCounts>,
    /// Injections the last phase's cases performed.
    injections: u64,
}

/// The generated program: calls libc in the target's order and handles
/// every failure with a clean exit, except the planted one, which crashes.
fn program(shape: &HuntShape, planted: FaultCell) -> Arc<dyn Workload> {
    let mut functions: Vec<&'static str> = shape.calls.clone();
    functions.sort_unstable();
    functions.dedup();
    let mut builder = NativeLibrary::builder(LIBC);
    for function in &functions {
        builder = builder.function(function, |_| 0);
    }
    let runtime = builder.build();
    let calls: Vec<(usize, &'static str)> = shape
        .calls
        .iter()
        .map(|name| (functions.binary_search(name).expect("listed"), *name))
        .collect();
    let slots = functions.len();
    FnWorkload::shared(
        "hunt-target",
        move || {
            let mut process = Process::new();
            process.load(runtime.clone());
            process
        },
        move |process: &mut Process| {
            let mut ordinals = vec![0u64; slots];
            for &(slot, name) in &calls {
                ordinals[slot] += 1;
                match process.call(name, &[3, 0, 64]) {
                    Ok(value) if value >= 0 => {}
                    _ => {
                        let errno = process.state().errno();
                        let planted = name == planted.function.as_str()
                            && ordinals[slot] == planted.call_ordinal
                            && Some(errno) == planted.errno;
                        return if planted { ExitStatus::Crashed(Signal::Segv) } else { ExitStatus::Exited(1) };
                    }
                }
            }
            ExitStatus::Exited(0)
        },
    )
}

fn fresh_lfi(object: &SharedObject, kernel: &SharedObject) -> Lfi {
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(object.clone());
    lfi.set_kernel(kernel.clone());
    lfi
}

impl Hunt {
    /// One hunt on target `index`: returns its latency and counts, or why
    /// it failed.
    fn hunt(&mut self, op: u32) -> Result<(f64, Vec<f64>, HuntCounts), String> {
        let index = self.next_op % self.targets.len();
        self.next_op += 1;
        let target = &self.targets[index];
        let tracer = &*self.tracer;
        let path = self.dir.join(format!("hunt-{op}.lfij"));
        let mut status_ms = Vec::new();

        let started = Instant::now();
        let op_span = tracer.start_at(started);
        let lfi = fresh_lfi(&target.object, &self.kernel);
        let timer = tracer.start();
        let report = lfi.profile(LIBC).map_err(|error| error.to_string())?;
        tracer.finish(timer, "profiler.profile", op_span.id, op);
        let timer = tracer.start();
        let mut explorer = lfi
            .explore(&Exhaustive, &[LIBC])
            .map_err(|error| error.to_string())?
            .seed(target.shape.explorer_seed)
            .halt_on_crash(true)
            .attach_observer(self.probe.clone());
        tracer.finish(timer, "explore.new", op_span.id, op);
        let timer = tracer.start();
        let mut journal = ExplorationJournal::create(&path, &explorer.store()).map_err(|error| error.to_string())?;
        tracer.finish(timer, "store.create", op_span.id, op);
        let created_bytes = if tracer.enabled() { file_len(&path) } else { 0 };
        let mut batches = 0;
        while !explorer.crash_found() {
            let step = tracer.start();
            self.probe.enter(step.id, op);
            let batch = explorer.step_workload(&target.workload);
            tracer.finish(step, "explore.step", op_span.id, op);
            if batch.is_none() {
                return Err(format!("target {index}: the frontier ran dry before the planted crash"));
            }
            batches += 1;
            let timer = tracer.start();
            let delta = explorer.take_delta();
            tracer.finish(timer, "explore.take_delta", op_span.id, op);
            let timer = tracer.start();
            journal.append_delta(&delta).map_err(|error| error.to_string())?;
            tracer.finish(timer, "store.append", op_span.id, op);
            status_ms.push(time_status(|| explorer.coverage_summary()));
        }
        let ended = Instant::now();
        tracer.finish_at(op_span, "hunt.op", ROOT, op, ended);

        // Output checks, outside the timed span.
        let crash: Vec<_> = explorer.clusters().iter().filter(|cluster| cluster.is_crash()).collect();
        if crash.len() != 1 || crash[0].example != target.planted {
            return Err(format!(
                "target {index}: crash clusters {:?}, planted {:?}",
                crash.iter().map(|cluster| cluster.example).collect::<Vec<_>>(),
                target.planted
            ));
        }
        let appended_bytes = if tracer.enabled() { file_len(&path).saturating_sub(created_bytes) } else { 0 };
        drop(journal);
        let recovered = ExplorationJournal::open(&path).map_err(|error| error.to_string())?;
        if recovered.state() != &explorer.store() {
            return Err(format!("target {index}: the journal does not replay to the explorer's store"));
        }
        std::fs::remove_file(&path).map_err(|error| error.to_string())?;
        let counts = HuntCounts { batches, cases: explorer.cases_executed(), appended_bytes, profiling: report.stats };
        Ok((ended.duration_since(started).as_secs_f64() * 1e3, status_ms, counts))
    }
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |meta| meta.len())
}

impl Bench for Hunt {
    const WHY: &'static str = "closed loop, 1 client; one op = profile a libc variant, explore to its planted crash, \
                               journal each batch: LFI's own per-hunt costs dominate; tail p90 of ~3300 hunts";

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Result<Self, String> {
        let kernel = build_kernel(Platform::LinuxX86);
        let probe = Probe::new(tracer.clone());
        let mut targets = Vec::with_capacity(TARGETS);
        for (index, shape) in hunt_shapes(seed, TARGETS).into_iter().enumerate() {
            let object = build_libc_scaled(Platform::LinuxX86, shape.exports).compiled.object;
            // The universe the hunt will explore, so the bug is planted in it.
            let universe = fresh_lfi(&object, &kernel)
                .scenario(&Exhaustive, &[LIBC])
                .map_err(|error| error.to_string())?
                .compile()
                .cells();
            let planted = plant(seed, index, &shape, &universe)
                .ok_or_else(|| format!("target {index}: no universe cell to plant a bug in"))?;
            let workload: Arc<dyn Workload> = Traced::observed(program(&shape, planted), probe.clone());
            targets.push(Target { shape, object, planted, workload });
        }
        let dir = PathBuf::from(WORK_DIR).join(format!("hunt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|error| format!("{}: {error}", dir.display()))?;
        let mut hunt =
            Hunt { kernel, targets, tracer: tracer.clone(), probe, dir, next_op: 0, counts: Vec::new(), injections: 0 };
        // Warm-up: one hunt, untimed.
        hunt.hunt(0)?;
        Ok(hunt)
    }

    fn measure(&mut self, span: Duration) -> Phase {
        let mut phase = Phase::default();
        self.counts.clear();
        self.next_op = 0;
        self.probe.reset();
        let started = Instant::now();
        while started.elapsed() < span {
            phase.attempted += 1;
            match self.hunt(phase.attempted as u32) {
                Ok((latency, status, counts)) => {
                    phase.op_ms.push(latency);
                    phase.status_ms.extend(status);
                    self.counts.push(counts);
                }
                Err(error) => {
                    phase.failed += 1;
                    phase.errors.push(error);
                }
            }
        }
        // Throughput of each tenth of the hunts, over the time spent in them:
        // the client's output checks between hunts are not the system's.
        let chunk = (phase.op_ms.len() / RATE_CHUNKS).max(1);
        phase.rates = phase
            .op_ms
            .chunks(chunk)
            .map(|ops| ops.len() as f64 * 1e3 / ops.iter().sum::<f64>())
            .collect();
        self.injections = self.probe.injections();
        phase
    }

    fn layers(&self, breakdown: &Breakdown) -> Vec<Metric> {
        let med = |values: &[f64]| median(values).unwrap_or(0.0);
        // Per-batch spans alternate between the probe batch and the batch
        // that crashes, two modes of equal weight: their median would sit
        // on the edge between them, so they are averaged.
        let avg = |values: &[f64]| mean(values).unwrap_or(0.0);
        // Exact counts: over the first pass through the targets, which the
        // same seed always hunts the same way.
        let pass = &self.counts[..self.counts.len().min(TARGETS)];
        let per_op = |f: fn(&HuntCounts) -> u64| mean(&pass.iter().map(|c| f(c) as f64).collect::<Vec<_>>());
        let profiling: Vec<ProfilingStats> = self.counts.iter().map(|c| c.profiling).collect();
        let appends: u64 = self.counts.iter().map(|c| c.batches).sum();
        let appended: u64 = self.counts.iter().map(|c| c.appended_bytes).sum();
        let cases: u64 = self.counts.iter().map(|c| c.cases).sum();
        let batches = per_op(|c| c.batches).unwrap_or(0.0);
        let mut metrics = profiler_metrics(med(breakdown.wall("profiler.profile")), &profiling);
        metrics.extend([
            metric("explore.new_ms", med(breakdown.wall("explore.new")), "ms"),
            metric("explore.step_self_ms", avg(breakdown.self_time("explore.step")), "ms"),
            metric("explore.batches_per_op", batches, "count"),
            metric("explore.cases_to_crash", per_op(|c| c.cases).unwrap_or(0.0), "count"),
            metric("controller.case_self_ms", med(breakdown.self_time("controller.case")), "ms"),
            metric("controller.sessions_per_op", batches, "count"),
            metric("controller.injections_per_case", self.injections as f64 / cases.max(1) as f64, "count"),
            metric("runtime.setup_ms", med(breakdown.wall("runtime.setup")), "ms"),
            metric("runtime.run_ms", med(breakdown.wall("runtime.run")), "ms"),
            metric("store.create_ms", med(breakdown.wall("store.create")), "ms"),
            metric("store.append_ms", avg(breakdown.wall("store.append")), "ms"),
            metric("store.bytes_per_append", appended as f64 / appends.max(1) as f64, "B"),
        ]);
        metrics
    }
}

impl Drop for Hunt {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
