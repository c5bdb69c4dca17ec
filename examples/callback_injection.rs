//! Fault injection through function pointers, plus argument-dependence
//! reporting (§3.1 extensions).
//!
//! Event-driven programs often call library functions through callback
//! tables rather than by name.  §3.1 notes that "the LFI controller could
//! dynamically resolve indirect calls at runtime and inject the return codes
//! corresponding to the function being called" — this example shows exactly
//! that: the application below registers `read` and `send` in a dispatch
//! table and only ever calls them through pointers, yet the interceptor still
//! injects each function's own error codes, because pointers are resolved at
//! call time.
//!
//! The second half runs the profiler's argument-constraint inference and
//! prints which error values are argument-gated (the paper's
//! `read`/`EWOULDBLOCK` false-positive class).
//!
//! Run with `cargo run --example callback_injection`.

use lfi::controller::Injector;
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::isa::Platform;
use lfi::profiler::{Profiler, ProfilerOptions};
use lfi::runtime::{NativeLibrary, Process};
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};

fn main() {
    // --- a plan with one fault per callback --------------------------------
    let plan = Plan::new()
        .entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(2),
            action: FaultAction::return_value(-1).with_errno(4), // EINTR
        })
        .entry(PlanEntry {
            function: "send".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction::return_value(-1).with_errno(32), // EPIPE
        });

    // --- the application's callback table -----------------------------------
    let mut process = Process::new();
    process.load(
        NativeLibrary::builder("libc.so.6")
            .function("read", |ctx| ctx.arg(2))
            .function("send", |ctx| ctx.arg(2))
            .build(),
    );
    let injector = Injector::new(&plan);
    process.preload(injector.synthesize_interceptor());

    // The program resolves its callbacks once, up front, then only ever calls
    // through the table.
    let callbacks = [process.fnptr("read").unwrap(), process.fnptr("send").unwrap()];

    println!("== driving the callback table ==");
    for round in 1..=3 {
        for (index, &callback) in callbacks.iter().enumerate() {
            let result = process.call_ptr(callback, &[3, 0x1000, 128]).unwrap();
            let name = if index == 0 { "read" } else { "send" };
            if result < 0 {
                println!("round {round}: {name} via pointer failed with {result}, errno {}", process.state().errno());
            } else {
                println!("round {round}: {name} via pointer returned {result}");
            }
        }
    }
    println!("\n== injection log ==\n{}", injector.log().to_text());

    // --- which error codes are argument-dependent? -------------------------
    let platform = Platform::LinuxX86;
    let libc = build_libc_scaled(platform, 40);
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(libc.compiled.object.clone());
    profiler.set_kernel(build_kernel(platform));
    let constraints = profiler.argument_constraints("libc.so.6").expect("constraint analysis runs");

    println!("== argument-gated error values (first 5 functions) ==");
    for (function, per_value) in constraints.iter().take(5) {
        for (value, gates) in per_value {
            let rendered: Vec<String> = gates.iter().map(ToString::to_string).collect();
            println!("  {function} returns {value} only when {}", rendered.join(" && "));
        }
    }
}
