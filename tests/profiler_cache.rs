//! Integration tests for the shared concurrent analysis cache (`AnalysisDb`),
//! the function-granular worker pool, and the facade's `ProfileStore`:
//!
//! * parallel `profile_all` over the shared cache is byte-identical to
//!   sequential, cold, single-library profiling;
//! * shared dependencies (libc, the kernel image) are disassembled exactly
//!   once per batch and never again while their bytes are unchanged;
//! * warm repeats replay memoized resolutions;
//! * the facade's `ProfileStore` survives a binary snapshot file round
//!   trip and replays across facade instances.

use lfi::asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::isa::Platform;
use lfi::objfile::SharedObject;
use lfi::profiler::Profiler;
use lfi::Lfi;

/// A small "system": three app libraries that all import from the corpus
/// libc (the shared dependency), plus the kernel image behind it.
fn system_libraries() -> Vec<SharedObject> {
    let libc = build_libc_scaled(Platform::LinuxX86, 40).compiled.object;
    let mut libraries = vec![libc];
    for (name, ret) in [("libapp.so", -11), ("libnet.so", -12), ("libui.so", -13)] {
        let spec = LibrarySpec::new(name, Platform::LinuxX86)
            .dependency("libc.so.6")
            .import("close", Some("libc.so.6"))
            .function(FunctionSpec::scalar("api_entry", 2).success(0).fault(FaultSpec::via_callee("close")))
            .function(FunctionSpec::scalar("api_fail", 1).success(0).fault(FaultSpec::returning(ret)));
        libraries.push(LibraryCompiler::new().compile(&spec).object);
    }
    libraries
}

fn profiler_with(libraries: &[SharedObject]) -> Profiler {
    let mut profiler = Profiler::new();
    for library in libraries {
        profiler.add_library(library.clone());
    }
    profiler.set_kernel(build_kernel(Platform::LinuxX86));
    profiler
}

#[test]
fn parallel_profile_all_matches_sequential_cold_profiling() {
    let libraries = system_libraries();
    let shared = profiler_with(&libraries);
    let parallel = shared.profile_all().unwrap();

    for report in &parallel {
        // Each library's profile must be byte-identical to what a fresh,
        // cold, single-library profiler produces for it.
        let cold = profiler_with(&libraries);
        let sequential = cold.profile_library(&report.profile.library).unwrap();
        assert_eq!(report.profile.to_xml(), sequential.profile.to_xml(), "{} diverged", report.profile.library);
    }

    // And a second profile_all — now fully warm — is byte-identical too.
    let warm = shared.profile_all().unwrap();
    for (a, b) in parallel.iter().zip(&warm) {
        assert_eq!(a.profile.to_xml(), b.profile.to_xml());
    }
}

#[test]
fn shared_dependencies_are_disassembled_once() {
    let libraries = system_libraries();
    let count = libraries.len();
    let profiler = profiler_with(&libraries);

    let cold = profiler.profile_all().unwrap();
    let db = profiler.analysis_db();
    // Every distinct object (the libraries plus the kernel image) was
    // disassembled exactly once for the whole batch, even though three
    // libraries all resolve into libc and libc resolves into the kernel.
    assert_eq!(db.disasm_cache().misses(), count as u64 + 1);
    let cold_misses: u64 = cold.iter().map(|r| r.stats.disasm_cache_misses).sum();
    assert_eq!(cold_misses, count as u64 + 1);

    // A warm repeat performs zero disassemblies and zero fresh resolutions.
    let warm = profiler.profile_all().unwrap();
    for report in &warm {
        assert_eq!(report.stats.disasm_cache_misses, 0, "{} re-disassembled", report.profile.library);
        assert_eq!(report.stats.resolution_cache_misses, 0, "{} re-resolved", report.profile.library);
        assert!(report.stats.resolution_cache_hits > 0);
    }
}

#[test]
fn profile_store_round_trips_across_facades() {
    let libraries = system_libraries();
    let mut lfi = Lfi::new();
    for library in &libraries {
        lfi.add_library(library.clone());
    }
    lfi.set_kernel(build_kernel(Platform::LinuxX86));
    let cold = lfi.profile_all().unwrap();
    assert!(cold.iter().all(|r| !r.stats.served_from_store));

    // Persist the store, load it into a second facade over the same
    // binaries: every profile replays without analysis.
    let path = std::env::temp_dir().join(format!("lfi-profiler-cache-{}.lfis", std::process::id()));
    lfi.save_profile_store(&path).unwrap();
    let mut restored = Lfi::new();
    for library in &libraries {
        restored.add_library(library.clone());
    }
    restored.set_kernel(build_kernel(Platform::LinuxX86));
    restored.load_profile_store_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.profile_store(), lfi.profile_store());
    let replayed = restored.profile_all().unwrap();
    assert!(replayed.iter().all(|r| r.stats.served_from_store));
    assert_eq!(restored.profiler().analysis_db().disasm_cache().misses(), 0);
    for (a, b) in cold.iter().zip(&replayed) {
        assert_eq!(a.profile.to_xml(), b.profile.to_xml());
    }
}
