//! Ablation micro-benchmark: the per-call cost of trigger evaluation in the
//! interceptor stub, as a function of the number of plan entries attached to
//! the intercepted function.  This is the mechanism behind the "overhead is
//! influenced by … how many triggers are present" observation in §6.4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lfi_controller::Injector;
use lfi_profile::FaultProfile;
use lfi_runtime::{NativeLibrary, Process};
use lfi_scenario::generator::{ScenarioGenerator, TriggerLoad};

fn process_with_triggers(triggers: usize) -> Process {
    let mut process = Process::new();
    process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
    if triggers > 0 {
        // All triggers target the same function so every call evaluates all
        // of them; call-count triggers placed beyond the benchmark's call
        // count never fire, isolating pure evaluation cost.
        let plan = TriggerLoad::new(["read"], triggers, 7).generate(&[FaultProfile::new("libc.so.6")]);
        let injector = Injector::new(&plan);
        process.preload(injector.synthesize_interceptor());
    }
    process
}

fn bench_trigger_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trigger_evaluation_per_call");
    for triggers in [0usize, 1, 10, 100, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(triggers), &triggers, |b, &triggers| {
            let mut process = process_with_triggers(triggers);
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                process.call("read", &[3, 0, i]).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trigger_evaluation);
criterion_main!(benches);
