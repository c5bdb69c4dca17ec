//! Arena restore identity: a process checked out of a [`ProcessArena`],
//! run through a fault-injection case and returned must be observably
//! identical to a freshly built process — the same call log, the same
//! replay-plan XML from an identical case, the same errno and library
//! list — including when the previous case panicked mid-run.
//!
//! This is the integration-level pin on the snapshot/restore determinism
//! contract: campaign workers drawing from one arena must see processes
//! indistinguishable from per-case rebuilds, or fixed-seed campaign results
//! would depend on pool history.

use lfi::apps::{base_process, new_world};
use lfi::controller::Injector;
use lfi::runtime::{PreparedProcess, Process, ProcessArena};
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};

fn plan() -> Plan {
    Plan::new().entry(PlanEntry {
        function: "read".into(),
        trigger: Trigger::on_call(2),
        action: FaultAction::return_value(-1).with_errno(5),
    })
}

fn arena() -> ProcessArena {
    ProcessArena::new(|| {
        let world = new_world();
        let process = base_process(&world, false);
        PreparedProcess::with_reset(process, move |_| world.lock().reset())
    })
}

/// Everything a campaign can observe about one case on one process.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    libraries: Vec<String>,
    results: Vec<i64>,
    errno: i64,
    call_log: Vec<&'static str>,
    replay_xml: String,
}

/// Runs the reference case — a scripted call mix under the fixed fault
/// plan, with call logging on — and collects every observable.
fn run_case(process: &mut Process) -> Fingerprint {
    let libraries: Vec<String> = process.loaded_libraries().map(str::to_owned).collect();
    let injector = Injector::new(&plan());
    process.preload(injector.synthesize_interceptor());
    process.set_call_log_enabled(true);
    let mut results = Vec::new();
    for i in 0..4 {
        results.push(process.call("read", &[3, 0, i]).unwrap());
    }
    results.push(process.call("pipe", &[]).unwrap());
    Fingerprint {
        libraries,
        results,
        errno: process.state().errno(),
        call_log: process.state().call_log_names(),
        replay_xml: injector.log().replay_plan().to_xml(),
    }
}

fn fresh_fingerprint() -> Fingerprint {
    let world = new_world();
    let mut process = base_process(&world, false);
    run_case(&mut process)
}

#[test]
fn arena_checkout_is_identical_to_a_fresh_build() {
    let arena = arena();

    // Dirty the pooled process first: a different case, different faults,
    // leftover errno, call log and file descriptors.
    {
        let mut process = arena.checkout();
        let injector = Injector::new(&Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::with_probability(1.0),
            action: FaultAction::return_value(-7).with_errno(9),
        }));
        process.preload(injector.synthesize_interceptor());
        process.set_call_log_enabled(true);
        for _ in 0..9 {
            let _ = process.call("read", &[3, 0, 1]);
        }
        let _ = process.call("pipe", &[]);
    }

    let mut pooled = arena.checkout();
    let restored = run_case(&mut pooled);
    drop(pooled);
    assert_eq!(restored, fresh_fingerprint());
    assert_eq!(arena.stats().builds, 1, "the arena restored rather than rebuilt");
}

#[test]
fn arena_checkout_is_identical_after_a_panicked_case() {
    let arena = arena();

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut process = arena.checkout();
        let injector = Injector::new(&plan());
        process.preload(injector.synthesize_interceptor());
        process.set_call_log_enabled(true);
        let _ = process.call("read", &[3, 0, 1]);
        let _ = process.call("read", &[3, 0, 2]);
        panic!("case blew up mid-run");
    }));
    assert!(result.is_err(), "the case must actually have panicked");

    let mut pooled = arena.checkout();
    let restored = run_case(&mut pooled);
    drop(pooled);
    assert_eq!(restored, fresh_fingerprint());
    assert_eq!(arena.stats().builds, 1, "the panicked case's process was restored, not rebuilt");
}
