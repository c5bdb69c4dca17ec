//! Benches for the reproduction's extension features: the documentation
//! parser and combined profiles (§6.3 extension), the argument-constraint
//! inference (§3.1 extension), and the cost of dispatching intercepted calls
//! through function pointers versus directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lfi_controller::Injector;
use lfi_core::experiments::{combined_accuracy, heuristics_ablation};
use lfi_corpus::{build_kernel, build_libc_scaled};
use lfi_docs::{CombinedProfile, DocParser, DocumentationSet, StylePolicy};
use lfi_isa::Platform;
use lfi_profiler::{Profiler, ProfilerOptions};
use lfi_runtime::{NativeLibrary, Process};
use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};

fn libc_profiler(exports: usize) -> (Profiler, lfi_corpus::CorpusLibrary) {
    let platform = Platform::LinuxX86;
    let library = build_libc_scaled(platform, exports);
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(library.compiled.object.clone());
    profiler.set_kernel(build_kernel(platform));
    (profiler, library)
}

fn bench_doc_pipeline(c: &mut Criterion) {
    let (profiler, library) = libc_profiler(400);
    let profile = profiler.profile_library("libc.so.6").unwrap().profile;
    let manual = DocumentationSet::from_error_map("libc.so.6", &library.documentation, StylePolicy::realistic(), 2009);
    let rendered = manual.render();

    let mut group = c.benchmark_group("doc_pipeline");
    group.sample_size(20);
    group.bench_function("render_manual_400_functions", |b| b.iter(|| manual.render()));
    group.bench_function("parse_manual_400_functions", |b| {
        b.iter(|| DocParser::new().parse_set("libc.so.6", &rendered).unwrap())
    });
    let mut parsed = DocParser::new().parse_set("libc.so.6", &rendered).unwrap();
    parsed.resolve_cross_references().unwrap();
    group.bench_function("combine_static_and_docs", |b| b.iter(|| CombinedProfile::combine(&profile, &parsed)));
    group.finish();
}

fn bench_arg_constraints(c: &mut Criterion) {
    let mut group = c.benchmark_group("arg_constraints");
    group.sample_size(20);
    for exports in [100usize, 400] {
        let (profiler, _) = libc_profiler(exports);
        group.bench_with_input(BenchmarkId::from_parameter(exports), &profiler, |b, profiler| {
            b.iter(|| profiler.argument_constraints("libc.so.6").unwrap())
        });
    }
    group.finish();
}

fn bench_indirect_dispatch(c: &mut Criterion) {
    // Compare the per-call cost of direct vs function-pointer dispatch under
    // an interceptor that always passes through.
    let plan = Plan::new().entry(PlanEntry {
        function: "read".into(),
        trigger: Trigger::on_call(u64::MAX),
        action: FaultAction::return_value(-1),
    });
    let build_process = || {
        let mut process = Process::new();
        process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
        let injector = Injector::new(&plan);
        process.preload(injector.synthesize_interceptor());
        process
    };

    let mut group = c.benchmark_group("intercepted_dispatch");
    group.sample_size(30);
    group.bench_function("direct_call", |b| {
        let mut process = build_process();
        b.iter(|| process.call("read", &[3, 0, 64]).unwrap())
    });
    group.bench_function("function_pointer_call", |b| {
        let mut process = build_process();
        let ptr = process.fnptr("read").unwrap();
        b.iter(|| process.call_ptr(ptr, &[3, 0, 64]).unwrap())
    });
    group.finish();
}

fn report_tables(_c: &mut Criterion) {
    // Print the ablation and combined-accuracy tables alongside the timing
    // numbers so `cargo bench` output carries the full story.
    println!("{}", heuristics_ablation(2009).render());
    println!("{}", combined_accuracy(2009).render());
}

criterion_group!(benches, bench_doc_pipeline, bench_arg_constraints, bench_indirect_dispatch, report_tables);
criterion_main!(benches);
