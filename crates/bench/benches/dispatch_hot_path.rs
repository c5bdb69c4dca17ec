//! Isolates the per-call cost of interceptor dispatch from workload noise:
//! one intercepted call on the three interesting paths — uninstrumented
//! (no interceptor at all), pass-through (a trigger is armed but never
//! fires), and triggered (a probability-1 fault is applied on every call).
//!
//! The numbers from this bench are the §6.4 "interception overhead must be
//! negligible" trajectory for this repo; before/after figures for the
//! interned-symbol refactor are recorded in CHANGES.md.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lfi_controller::Injector;
use lfi_runtime::{NativeLibrary, Process, Symbol};
use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};

/// Calls per timed sample: individual calls are ~100 ns, far below timer
/// resolution for the shim's 10-sample strategy, so each iteration batches.
const CALLS_PER_ITER: u64 = 100_000;

fn libc() -> NativeLibrary {
    NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build()
}

fn intercepted_process(plan: Plan) -> (Process, Injector) {
    let mut process = Process::new();
    process.load(libc());
    let injector = Injector::new(&plan);
    process.preload(injector.synthesize_interceptor());
    (process, injector)
}

fn passthrough_plan() -> Plan {
    // The trigger is armed (so the stub evaluates it on every call) but its
    // ordinal is unreachable, so every call takes the pass-through path.
    Plan::new().entry(PlanEntry {
        function: "read".into(),
        trigger: Trigger::on_call(u64::MAX),
        action: FaultAction::return_value(-1).with_errno(9),
    })
}

fn general_passthrough_plan() -> Plan {
    // A second never-firing entry on the same function defeats stub
    // specialization, so this plan measures the pre-specialization general
    // stub (per-call entry walk) on identical traffic to `passthrough`,
    // which now compiles to the deterministic baked-in stub.
    passthrough_plan().entry(PlanEntry {
        function: "read".into(),
        trigger: Trigger::on_call(u64::MAX - 1),
        action: FaultAction::return_value(-2),
    })
}

fn triggered_plan() -> Plan {
    // Probability 1.0: the fault (retval + errno) is applied on every call,
    // exercising the full decide-and-apply path including the log append.
    Plan::new().with_seed(7).entry(PlanEntry {
        function: "read".into(),
        trigger: Trigger::with_probability(1.0),
        action: FaultAction::return_value(-1).with_errno(9),
    })
}

fn run_calls(process: &mut Process) -> i64 {
    let mut acc = 0i64;
    for i in 0..CALLS_PER_ITER {
        acc ^= process.call("read", &[3, 0, (i & 0xff) as i64]).unwrap();
    }
    acc
}

/// Prints a per-call figure (the shim reports per-iteration means, and one
/// iteration here is [`CALLS_PER_ITER`] calls).
fn per_call_summary(label: &str, process: &mut Process) {
    let start = Instant::now();
    let acc = run_calls(process);
    let elapsed = start.elapsed();
    black_box(acc);
    println!("{label}: {:.1} ns/call", elapsed.as_secs_f64() * 1e9 / CALLS_PER_ITER as f64);
}

fn bench_dispatch_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_hot_path");

    group.bench_function("uninstrumented", |b| {
        let mut process = Process::new();
        process.load(libc());
        b.iter(|| run_calls(&mut process))
    });

    group.bench_function("passthrough", |b| {
        let (mut process, _injector) = intercepted_process(passthrough_plan());
        b.iter(|| run_calls(&mut process))
    });

    group.bench_function("passthrough_general", |b| {
        let (mut process, _injector) = intercepted_process(general_passthrough_plan());
        b.iter(|| run_calls(&mut process))
    });

    group.bench_function("triggered", |b| {
        let (mut process, injector) = intercepted_process(triggered_plan());
        b.iter(|| {
            // Every call injects, so reset between iterations keeps the
            // injection log at steady state instead of growing across
            // samples and timing reallocs of an ever-larger Vec.
            injector.reset();
            run_calls(&mut process)
        })
    });

    // The resolve-once contract end to end: the workload resolves `read` to a
    // Symbol at setup and dispatches by id, so not even the call boundary
    // hashes a string.
    group.bench_function("passthrough_presym", |b| {
        let (mut process, _injector) = intercepted_process(passthrough_plan());
        let read = Symbol::intern("read");
        b.iter(|| {
            let mut acc = 0i64;
            for i in 0..CALLS_PER_ITER {
                acc ^= process.call_sym(read, &[3, 0, (i & 0xff) as i64]).unwrap();
            }
            acc
        })
    });

    group.finish();

    let mut process = Process::new();
    process.load(libc());
    per_call_summary("uninstrumented      ", &mut process);
    per_call_summary("passthrough (spec)  ", &mut intercepted_process(passthrough_plan()).0);
    per_call_summary("passthrough (general)", &mut intercepted_process(general_passthrough_plan()).0);
    per_call_summary("triggered           ", &mut intercepted_process(triggered_plan()).0);
}

criterion_group!(benches, bench_dispatch_hot_path);
criterion_main!(benches);
