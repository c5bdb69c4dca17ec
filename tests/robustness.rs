//! Fault injection on the fault injector itself: malformed inputs, missing
//! libraries, stripped binaries, exhausted interposition chains and empty
//! profiles must produce errors (or graceful degradation), never panics.

use lfi::controller::Injector;
use lfi::isa::Platform;
use lfi::objfile::{ObjectBuilder, SharedObject};
use lfi::profile::FaultProfile;
use lfi::profiler::{Profiler, ProfilerError};
use lfi::runtime::{Process, RuntimeError};
use lfi::scenario::generator::{Random, ScenarioGenerator, TriggerLoad};
use lfi::scenario::{FaultAction, Plan, PlanEntry, ScenarioError, Trigger};
use lfi::Lfi;

#[test]
fn malformed_profile_xml_is_rejected_not_panicked() {
    let cases = [
        "",
        "garbage",
        "<plan />",
        "<profile><function /></profile>",
        "<profile><function name='f'><error-codes retval='NaN' /></function></profile>",
        "<profile><function name='f'><error-codes retval='-1'><side-effect type='weird'>1</side-effect></error-codes></function></profile>",
        "<profile><function name='f'>",
    ];
    for case in cases {
        assert!(FaultProfile::from_xml(case).is_err(), "case {case:?} unexpectedly parsed");
    }
}

#[test]
fn malformed_plan_xml_is_rejected_not_panicked() {
    let cases = [
        "",
        "<profile />",
        "<plan><function /></plan>",
        "<plan><function name='f' inject='soon' /></plan>",
        "<plan><function name='f' errno='ENOSUCHERRNO' /></plan>",
        "<plan><function name='f'><modify argument='0' op='frobnicate' value='1' /></function></plan>",
        "<plan><function name='f'><choice /></function></plan>",
    ];
    for case in cases {
        let result = Plan::from_xml(case);
        assert!(
            matches!(
                result,
                Err(ScenarioError::Xml(_) | ScenarioError::Schema { .. } | ScenarioError::InvalidNumber { .. })
            ),
            "case {case:?}"
        );
    }
}

#[test]
fn corrupted_object_files_are_rejected_at_every_truncation_point() {
    let object = ObjectBuilder::new("libtrunc.so", Platform::LinuxX86)
        .export("f", vec![lfi::isa::Inst::Ret])
        .import("g", Some("libg.so"))
        .build();
    let bytes = object.to_bytes();
    for cut in 0..bytes.len() {
        assert!(SharedObject::from_bytes(&bytes[..cut]).is_err());
    }
    // Flipping the magic is also rejected.
    let mut corrupted = bytes.clone();
    corrupted[0] ^= 0xff;
    assert!(SharedObject::from_bytes(&corrupted).is_err());
}

#[test]
fn profiling_unknown_or_empty_libraries_degrades_gracefully() {
    let profiler = Profiler::new();
    assert!(matches!(profiler.profile_library("libnothere.so"), Err(ProfilerError::UnknownLibrary { .. })));

    // A library with no exports produces an empty—but valid—profile.
    let mut lfi = Lfi::new();
    lfi.add_library(ObjectBuilder::new("libempty.so", Platform::LinuxX86).build());
    let report = lfi.profile("libempty.so").unwrap();
    assert_eq!(report.profile.function_count(), 0);
    assert_eq!(report.profile.total_faults(), 0);
    // Scenario generation over an empty profile yields an empty plan.
    let plan = lfi.exhaustive_scenario(&["libempty.so"]).unwrap();
    assert!(plan.is_empty());
    let random = lfi.random_scenario(&["libempty.so"], 0.5, 1).unwrap();
    assert!(random.is_empty());
}

#[test]
fn calls_to_missing_symbols_are_reported() {
    let mut process = Process::new();
    assert!(matches!(process.call("read", &[]), Err(RuntimeError::UnresolvedSymbol { .. })));
}

#[test]
fn interceptor_without_an_original_library_still_injects_and_passes_through() {
    // The plan intercepts a function no loaded library defines; uninjected
    // calls degrade to a no-op success instead of crashing the harness.
    let plan = Plan::new().entry(PlanEntry {
        function: "ghost".into(),
        trigger: Trigger::on_call(2),
        action: FaultAction::return_value(-1),
    });
    let injector = Injector::new(&plan);
    let mut process = Process::new();
    process.preload(injector.synthesize_interceptor());
    assert_eq!(process.call("ghost", &[]).unwrap(), 0);
    assert_eq!(process.call("ghost", &[]).unwrap(), -1);
    assert_eq!(process.call("ghost", &[]).unwrap(), 0);
    assert_eq!(injector.log().injection_count(), 1);
}

#[test]
fn empty_and_degenerate_plans_are_harmless() {
    let injector = Injector::new(&Plan::new());
    assert!(injector.intercepted_functions().is_empty());
    let library = injector.synthesize_interceptor();
    assert_eq!(library.symbol_count(), 0);
    assert!(injector.log().injections.is_empty());
    assert!(injector.replay_plan().is_empty());

    // Trigger-load generation with no functions or no triggers is empty.
    assert!(TriggerLoad::new(Vec::<String>::new(), 100, 1).generate(&[]).is_empty());
    assert!(TriggerLoad::new(["read"], 0, 1).generate(&[]).is_empty());
}

#[test]
fn invalid_probabilities_are_rejected_with_typed_errors() {
    // The random generator rejects NaN and out-of-range probabilities up
    // front instead of silently producing degenerate plans.
    for bad in [f64::NAN, -0.01, 1.01, f64::INFINITY] {
        assert!(
            matches!(Random::new(bad, 1), Err(ScenarioError::InvalidProbability { .. })),
            "probability {bad} was accepted"
        );
    }
    // The facade surfaces the same error through its one-chain API.
    let mut lfi = Lfi::new();
    lfi.add_library(ObjectBuilder::new("libempty.so", Platform::LinuxX86).build());
    assert!(lfi.random_scenario(&["libempty.so"], f64::NAN, 1).is_err());
}

#[test]
fn probability_bounds_are_clamped() {
    // Out-of-range probabilities are clamped rather than panicking inside the
    // RNG.
    let plan = Plan::new().with_seed(1).entry(PlanEntry {
        function: "f".into(),
        trigger: Trigger::with_probability(42.0),
        action: FaultAction::return_value(-1),
    });
    let injector = Injector::new(&plan);
    let mut process = Process::new();
    process.preload(injector.synthesize_interceptor());
    assert_eq!(process.call("f", &[]).unwrap(), -1);

    let plan = Plan::new().with_seed(1).entry(PlanEntry {
        function: "f".into(),
        trigger: Trigger::with_probability(-3.0),
        action: FaultAction::return_value(-1),
    });
    let injector = Injector::new(&plan);
    let mut process = Process::new();
    process.preload(injector.synthesize_interceptor());
    assert_eq!(process.call("f", &[]).unwrap(), 0);
}

#[test]
fn stack_trace_triggers_never_fire_without_a_matching_stack() {
    let plan = Plan::new().entry(PlanEntry {
        function: "read".into(),
        trigger: Trigger::on_call(1).frame("frame_that_never_exists"),
        action: FaultAction::return_value(-1),
    });
    let injector = Injector::new(&plan);
    let mut process = Process::new();
    process.load(
        lfi::runtime::NativeLibrary::builder("libc.so.6")
            .function("read", |ctx| ctx.arg(2))
            .build(),
    );
    process.preload(injector.synthesize_interceptor());
    for _ in 0..5 {
        assert_eq!(process.call("read", &[0, 0, 9]).unwrap(), 9);
    }
    assert_eq!(injector.log().injection_count(), 0);
}
