//! End-to-end benchmark of the LFI reproduction.
//!
//! ```text
//! perfbench --workload <hunt|sweep|fabric> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets the workload up several times (reporting the median
//! set-up time), measures it for `--seconds`, checks the program's outputs
//! outside the timed spans, and prints one JSON object as its last line of
//! standard output.  `--trace 0` reports the end-to-end metrics of an
//! untraced run; `--trace 1` measures an untraced and a traced half, and
//! reports the per-layer metrics of the traced half plus the tracing
//! overhead between the two.  A failed output check exits with code 1.
//! See `README.md` beside this crate for the metric table.

mod fabric;
mod hunt;
mod inputs;
mod probe;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfi::profiler::ProfilingStats;
use trace::{Breakdown, Tracer};

/// Set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 5;

/// Where traces and scratch files go, relative to the working directory.
pub const WORK_DIR: &str = ".perfbench";

/// The per-layer metrics, with their units, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("profiler.profile_ms", "ms"),
    ("profiler.functions_per_s", "1/s"),
    ("profiler.disasm_hit_ratio", "ratio"),
    ("profiler.resolution_hit_ratio", "ratio"),
    ("scenario.generate_ms", "ms"),
    ("scenario.entries_per_plan", "count"),
    ("explore.new_ms", "ms"),
    ("explore.step_self_ms", "ms"),
    ("explore.batches_per_op", "count"),
    ("explore.cases_to_crash", "count"),
    ("controller.case_self_ms", "ms"),
    ("controller.sessions_per_op", "count"),
    ("controller.injections_per_case", "count"),
    ("runtime.setup_ms", "ms"),
    ("runtime.run_ms", "ms"),
    ("store.create_ms", "ms"),
    ("store.append_ms", "ms"),
    ("store.bytes_per_append", "B"),
    ("store.journal_bytes_per_cell", "B"),
    ("fabric.status_handler_ms", "ms"),
    ("fabric.submit_rtt_ms", "ms"),
    ("fabric.queue_wait_ms", "ms"),
    ("fabric.requeued_cells", "count"),
    ("loadgen.late_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latencies (ms) of the ops that completed and passed their checks.
    pub op_ms: Vec<f64>,
    /// Latencies (ms) of the status reads made while the ops ran.
    pub status_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Throughput — ops, or acked cells on `fabric`, per second — of each
    /// chunk of the run; `ops_per_s` is their median, so a burst of
    /// interference on a shared machine moves one chunk, not the result.
    pub rates: Vec<f64>,
    /// Output-check failures, each one line.
    pub errors: Vec<String>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The `profiler` layer's metrics: `profile_ms` as measured, the rest from
/// the program's own `ProfilingStats`, summed over `stats`.
pub fn profiler_metrics(profile_ms: f64, stats: &[ProfilingStats]) -> Vec<Metric> {
    let sum = |field: fn(&ProfilingStats) -> u64| stats.iter().map(field).sum::<u64>();
    let ratio = |hits: u64, misses: u64| if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
    let seconds: f64 = stats.iter().map(|stats| stats.duration.as_secs_f64()).sum();
    let functions = sum(|stats| stats.functions_analyzed as u64);
    let disasm = ratio(sum(|stats| stats.disasm_cache_hits), sum(|stats| stats.disasm_cache_misses));
    let resolution = ratio(sum(|stats| stats.resolution_cache_hits), sum(|stats| stats.resolution_cache_misses));
    vec![
        metric("profiler.profile_ms", profile_ms, "ms"),
        metric("profiler.functions_per_s", functions as f64 / seconds, "1/s"),
        metric("profiler.disasm_hit_ratio", disasm, "ratio"),
        metric("profiler.resolution_hit_ratio", resolution, "ratio"),
    ]
}

/// In-process status reads are timed in bursts of this many back-to-back
/// calls, one sample per burst: a single read takes about as long as the
/// two clock reads around it.
const STATUS_BURST: u32 = 8;

/// One status-read sample: the mean time of a burst of `read` calls, in ms.
pub fn time_status<T>(mut read: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    for _ in 0..STATUS_BURST {
        std::hint::black_box(read());
    }
    started.elapsed().as_secs_f64() * 1e3 / f64::from(STATUS_BURST)
}

/// A workload the benchmark drives.
pub trait Bench: Sized {
    /// Why the workload exists: which layers it stresses and which it
    /// bypasses.
    const WHY: &'static str;

    /// Builds everything the timed ops need.
    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Result<Self, String>;

    /// Runs ops for `span` and checks their outputs.
    fn measure(&mut self, span: Duration) -> Phase;

    /// The per-layer metrics of the last (traced) phase.
    fn layers(&self, breakdown: &Breakdown) -> Vec<Metric>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a whole number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (hunt, sweep or fabric)")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The windowed tail of `samples`; a run too short to have one fails its
/// checks.
fn tail(samples: &[f64], what: &str, errors: &mut Vec<String>) -> f64 {
    let Some((p, tail)) = stats::windowed_tail(samples) else {
        errors.push(format!("{what}: {} samples are too few for a tail; run longer", samples.len()));
        return 0.0;
    };
    eprintln!("{what}: {} samples, tail at p{p}", samples.len());
    tail
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(setup_s: f64, phase: &Phase, errors: &mut Vec<String>) -> Vec<Metric> {
    let attempted = phase.attempted.max(1) as f64;
    vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", stats::median(&phase.rates).unwrap_or(0.0), "1/s"),
        metric("op_p50_ms", stats::median(&phase.op_ms).unwrap_or(0.0), "ms"),
        metric("op_tail_ms", tail(&phase.op_ms, "op latency", errors), "ms"),
        metric("ok_ratio", (phase.attempted - phase.failed) as f64 / attempted, "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("status_p50_ms", stats::median(&phase.status_ms).unwrap_or(0.0), "ms"),
        metric("status_tail_ms", tail(&phase.status_ms, "status latency", errors), "ms"),
    ]
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn drive<B: Bench>(args: &Args) -> Result<Outcome, String> {
    eprintln!("{}: {}", args.workload, B::WHY);
    let tracer = Arc::new(Tracer::new(false));
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let started = Instant::now();
        bench = Some(B::setup(args.seed, &tracer)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUPS > 0");
    let setup_s = stats::median(&setups).expect("SETUPS > 0");
    let span = Duration::from_secs(args.seconds);

    let mut errors = Vec::new();
    if !args.trace {
        let phase = bench.measure(span);
        errors.extend(phase.errors.iter().cloned());
        let metrics = end_to_end(setup_s, &phase, &mut errors);
        return Ok(Outcome { metrics, attempted: phase.attempted, failed: phase.failed, errors });
    }

    // Traced run: an untraced half, then a traced half.
    let plain = bench.measure(span / 2);
    tracer.set_enabled(true);
    let traced = bench.measure(span / 2);
    tracer.set_enabled(false);
    for phase in [&plain, &traced] {
        errors.extend(phase.errors.iter().cloned());
    }
    let spans = tracer.spans();
    let breakdown = Breakdown::of(&spans);
    let path = PathBuf::from(WORK_DIR).join(format!("trace-{}-seed{}.ndjson", args.workload, args.seed));
    trace::write_ndjson(&path, &spans).map_err(|error| format!("writing {}: {error}", path.display()))?;
    eprintln!("wrote {} spans to {}", spans.len(), path.display());
    let plain_p50 = stats::median(&plain.op_ms).unwrap_or(0.0);
    let traced_p50 = stats::median(&traced.op_ms).unwrap_or(0.0);
    let mut measured = bench.layers(&breakdown);
    let overhead = if plain_p50 > 0.0 { (traced_p50 / plain_p50 - 1.0) * 100.0 } else { 0.0 };
    measured.push(metric("trace.overhead_pct", overhead, "%"));
    if let Some(stray) = measured.iter().find(|m| !PER_LAYER.iter().any(|(name, _)| *name == m.name)) {
        return Err(format!("{} is not a declared per-layer metric", stray.name));
    }
    // Every declared metric is printed; a layer this workload's path does
    // not reach reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| measured.iter().find(|m| m.name == name).cloned().unwrap_or(metric(name, 0.0, unit)))
        .collect();
    Ok(
        Outcome {
            metrics,
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            errors,
        },
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "hunt" => drive::<hunt::Hunt>(&args),
        "sweep" => drive::<sweep::Sweep>(&args),
        "fabric" => drive::<fabric::FabricBench>(&args),
        other => Err(format!("unknown workload `{other}` (hunt, sweep or fabric)")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    for error in &outcome.errors {
        eprintln!("check failed: {error}");
    }
    let correct = outcome.errors.is_empty();
    let mut json = String::new();
    for (index, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if index == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_records_each_workloads_why() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark's directory");
        for (name, why) in
            [("hunt", hunt::Hunt::WHY), ("sweep", sweep::Sweep::WHY), ("fabric", fabric::FabricBench::WHY)]
        {
            assert!(json.contains(&format!("\"name\": \"{name}\",\n      \"why\": \"{why}\"")), "{name}");
        }
        for (name, _) in PER_LAYER {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
