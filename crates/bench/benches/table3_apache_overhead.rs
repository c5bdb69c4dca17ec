//! Table 3 bench: Apache + AB completion time as a function of the number of
//! installed triggers, for the static-HTML and PHP workloads.  The Criterion
//! series *is* the table: one benchmark id per (workload, trigger count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lfi_apps::apache::ab::run_ab;
use lfi_apps::apache::{most_called_functions, ApacheServer, RequestKind};
use lfi_apps::{base_process, new_world};
use lfi_controller::Injector;
use lfi_core::experiments::{table3_apache_overhead, TRIGGER_COUNTS};
use lfi_corpus::{build_kernel, build_libc_scaled};
use lfi_isa::Platform;
use lfi_profiler::{Profiler, ProfilerOptions};
use lfi_scenario::generator::{ScenarioGenerator, TriggerLoad};

fn bench_table3(c: &mut Criterion) {
    let platform = Platform::LinuxX86;
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(build_libc_scaled(platform, 80).compiled.object);
    profiler.add_library(lfi_corpus::libc::build_apr_scaled(platform, 40).compiled.object);
    profiler.add_library(lfi_corpus::libc::build_aprutil_scaled(platform, 30).compiled.object);
    profiler.set_kernel(build_kernel(platform));
    let profiles: Vec<_> = profiler.profile_all().unwrap().into_iter().map(|r| r.profile).collect();

    let mut group = c.benchmark_group("table3_apache_overhead");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for (label, kind) in [("static_html", RequestKind::StaticHtml), ("php", RequestKind::Php)] {
        for &triggers in TRIGGER_COUNTS {
            group.bench_with_input(BenchmarkId::new(label, triggers), &(kind, triggers), |b, &(kind, triggers)| {
                b.iter(|| {
                    let world = new_world();
                    let mut process = base_process(&world, true);
                    if triggers > 0 {
                        let top = most_called_functions(triggers.min(300));
                        let plan = TriggerLoad::new(top, triggers, 2009).generate(&profiles);
                        let injector = Injector::new(&plan);
                        process.preload(injector.synthesize_interceptor());
                    }
                    let mut server = ApacheServer::start(&mut process);
                    run_ab(&mut server, &mut process, kind, 100)
                })
            });
        }
    }
    group.finish();

    let table = table3_apache_overhead(1000, 2009);
    println!("{}", table.render());
    println!("{}", lfi_bench::summarize_overhead(&table));
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
