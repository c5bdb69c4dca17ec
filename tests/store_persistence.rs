//! The lfi-store durability contracts, end to end: lossless, byte-stable
//! codec round trips for arbitrary stores, torn-tail recovery at *every*
//! byte offset of a killed append, hostile-bytes robustness (never panic,
//! always a typed error — a `StoreError` naming path and offset for store
//! files, a typed XML error for the plan and profile documents that stay
//! XML), and a journaled explorer kill + resume that reproduces the
//! uninterrupted run batch for batch.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::explore::{CrashCluster, ExplorationDelta, ExplorationStore, FrontierCell, FunctionCoverage, OutcomeClass};
use lfi::intern::Symbol;
use lfi::isa::Platform;
use lfi::profile::xml::XmlError;
use lfi::profile::{FaultProfile, ProfileError, ProfileKey, ProfileStore};
use lfi::profiler::ProfilerOptions;
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::generator::Exhaustive;
use lfi::scenario::{FaultCell, Plan, ScenarioError};
use lfi::store::{encode_exploration_store, format, ExplorationJournal, Journal, Record};
use lfi::Lfi;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cell(function: &str, ordinal: u64, errno: Option<i64>) -> FaultCell {
    FaultCell { function: Symbol::intern(function), call_ordinal: ordinal, retval: -1, errno }
}

/// A small but non-trivial store: frontier, executed cells, coverage, one
/// cluster — enough that every record section of the codec is exercised.
fn base_store() -> ExplorationStore {
    ExplorationStore {
        seed: 7,
        batch_size: 4,
        parallelism: 1,
        halt_on_crash: false,
        case_budget: Some(500),
        injection_budget: None,
        time_budget_ms: None,
        universe: 5,
        batch_index: 0,
        rng_draws: 3,
        probe_done: true,
        crash_found: false,
        cases_executed: 1,
        injections_performed: 0,
        elapsed_ms: 2,
        frontier: vec![
            FrontierCell { cell: cell("read", 1, Some(5)), priority: 0 },
            FrontierCell { cell: cell("write", 1, Some(28)), priority: -1 },
            FrontierCell { cell: cell("close", 2, Some(5)), priority: 3 },
        ],
        executed: vec![cell("open", 1, Some(2))],
        unreached: vec![],
        pruned_functions: vec![Symbol::intern("mmap")],
        coverage: vec![(
            Symbol::intern("open"),
            FunctionCoverage { observed_calls: 4, triggered: [(1, -1, Some(2))].into_iter().collect() },
        )],
        clusters: vec![],
    }
}

/// One batch's worth of change against [`base_store`].
fn delta_one() -> ExplorationDelta {
    ExplorationDelta {
        batch_index: 1,
        rng_draws: 9,
        probe_done: true,
        crash_found: false,
        cases_executed: 3,
        injections_performed: 2,
        elapsed_ms: 11,
        frontier_remove: vec![cell("read", 1, Some(5)), cell("write", 1, Some(28))],
        frontier_upsert: vec![],
        executed: vec![cell("read", 1, Some(5)), cell("write", 1, Some(28))],
        unreached: vec![],
        pruned_functions: vec![],
        coverage: vec![(
            Symbol::intern("read"),
            FunctionCoverage { observed_calls: 2, triggered: [(1, -1, Some(5))].into_iter().collect() },
        )],
        clusters: vec![],
    }
}

/// A second batch: the crash batch, escalating a neighbour cell.
fn delta_two() -> ExplorationDelta {
    ExplorationDelta {
        batch_index: 2,
        rng_draws: 15,
        probe_done: true,
        crash_found: true,
        cases_executed: 4,
        injections_performed: 3,
        elapsed_ms: 23,
        frontier_remove: vec![cell("close", 2, Some(5))],
        frontier_upsert: vec![FrontierCell { cell: cell("close", 1, Some(5)), priority: 100 }],
        executed: vec![cell("close", 2, Some(5))],
        unreached: vec![],
        pruned_functions: vec![],
        coverage: vec![(
            Symbol::intern("close"),
            FunctionCoverage { observed_calls: 2, triggered: [(2, -1, Some(5))].into_iter().collect() },
        )],
        clusters: vec![CrashCluster {
            function: Symbol::intern("close"),
            stack: vec![Symbol::intern("flush"), Symbol::intern("close")],
            outcome: OutcomeClass::Crash(Signal::Segv),
            count: 1,
            example: cell("close", 2, Some(5)),
            example_case: "exhaustive_close_e5_c2".to_owned(),
        }],
    }
}

// ---------------------------------------------------------------------------
// Torn-tail torture: truncate at every byte offset
// ---------------------------------------------------------------------------

/// Kill-mid-append torture test: a journal holding snapshot + two deltas is
/// truncated at *every* byte offset.  Recovery must never panic; anywhere
/// inside a torn record it must restore exactly the previous durable state,
/// and the recovered journal must be appendable again.
#[test]
fn recovery_at_every_truncation_offset_restores_the_last_durable_state() {
    let dir = temp_dir("lfi-store-torture");
    let path = dir.join("torture.lfij");

    let s0 = base_store();
    let mut journal = ExplorationJournal::create(&path, &s0).unwrap();
    let len0 = fs::metadata(&path).unwrap().len();
    journal.append_delta(&delta_one()).unwrap();
    let s1 = journal.state().clone();
    let len1 = fs::metadata(&path).unwrap().len();
    journal.append_delta(&delta_two()).unwrap();
    let s2 = journal.state().clone();
    let len2 = fs::metadata(&path).unwrap().len();
    drop(journal);
    assert!(len0 < len1 && len1 < len2);
    assert_ne!(s0, s1);
    assert_ne!(s1, s2);

    let bytes = fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, len2);

    let truncated = dir.join("truncated.lfij");
    for cut in 0..=bytes.len() {
        fs::write(&truncated, &bytes[..cut]).unwrap();
        match ExplorationJournal::open(&truncated) {
            Ok(recovered) => {
                let cut = cut as u64;
                assert!(cut >= len0, "a torn leading snapshot must not recover (cut {cut})");
                let expected = if cut >= len2 {
                    &s2
                } else if cut >= len1 {
                    &s1
                } else {
                    &s0
                };
                assert_eq!(recovered.state(), expected, "wrong durable state at cut {cut}");
                // Recovery truncates the torn tail off the file itself.
                let durable_len = if cut >= len2 {
                    len2
                } else if cut >= len1 {
                    len1
                } else {
                    len0
                };
                assert_eq!(fs::metadata(&truncated).unwrap().len(), durable_len, "tail not truncated at cut {cut}");
            }
            Err(error) => {
                assert!((cut as u64) < len0, "valid prefix refused at cut {cut}: {error}");
                let message = error.to_string();
                assert!(message.contains("truncated.lfij"), "error must name the path: {message}");
            }
        }
    }

    // A journal recovered mid-append stays appendable: re-apply the lost
    // delta and the state catches back up to the pre-kill state.
    fs::write(&truncated, &bytes[..len1 as usize + 3]).unwrap();
    let mut recovered = ExplorationJournal::open(&truncated).unwrap();
    assert_eq!(recovered.state(), &s1, "torn second delta rolls back to the first");
    recovered.append_delta(&delta_two()).unwrap();
    assert_eq!(recovered.state(), &s2);
    drop(recovered);
    assert_eq!(ExplorationJournal::open(&truncated).unwrap().state(), &s2, "re-appended delta is durable");

    // The file loader recovers the same durable state from a torn file.
    fs::write(&truncated, &bytes[..len2 as usize - 1]).unwrap();
    assert_eq!(lfi::store::load_exploration(&truncated).unwrap(), s1);

    fs::remove_dir_all(&dir).ok();
}

/// Compaction folds the journal back to a single snapshot without changing
/// the recovered state, and the compacted file is smaller than the log it
/// replaces.
#[test]
fn compaction_preserves_state_and_shrinks_the_journal() {
    let dir = temp_dir("lfi-store-compact");
    let path = dir.join("compact.lfij");

    let mut journal = ExplorationJournal::create(&path, &base_store()).unwrap().compact_every(2);
    journal.append_delta(&delta_one()).unwrap();
    assert_eq!(journal.deltas_since_snapshot(), 1, "below the threshold: still a log");
    journal.append_delta(&delta_two()).unwrap();
    assert_eq!(journal.deltas_since_snapshot(), 0, "threshold reached: compacted");
    let state = journal.state().clone();
    drop(journal);

    let recovered = ExplorationJournal::open(&path).unwrap();
    assert_eq!(recovered.state(), &state);

    // The compacted file is exactly header + one snapshot record.
    let (_, records) = Journal::open(&path).unwrap();
    assert_eq!(records.len(), 1);
    assert!(matches!(records[0], Record::ExplorationSnapshot(_)));

    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Journaled explorer kill + resume
// ---------------------------------------------------------------------------

const LIBC_EXPORTS: usize = 120;

fn lfi_over_libc() -> Lfi {
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, LIBC_EXPORTS).compiled.object);
    lfi.set_kernel(build_kernel(Platform::LinuxX86));
    lfi
}

fn setup() -> Process {
    let mut process = Process::new();
    process.load(
        NativeLibrary::builder("libc.so.6")
            .function("open", |_| 3)
            .function("write", |ctx| ctx.arg(2))
            .function("fsync", |_| 0)
            .function("close", |_| 0)
            .build(),
    );
    process
}

/// The log-structured writer of `tests/exploration.rs`: dies on the
/// undocumented EIO from the second `close`.
fn workload(process: &mut Process) -> ExitStatus {
    if process.call("open", &[0, 0, 0]).unwrap_or(-1) < 0 {
        return ExitStatus::Exited(2);
    }
    for _ in 0..4 {
        if process.call("write", &[3, 0, 64]).unwrap_or(-1) < 0 {
            return ExitStatus::Exited(1);
        }
    }
    if process.call("fsync", &[3]).unwrap_or(-1) < 0 {
        return ExitStatus::Exited(1);
    }
    for _ in 0..2 {
        if process.call("close", &[3]).unwrap_or(-1) < 0 {
            if process.state().errno() == 5 {
                return ExitStatus::Crashed(Signal::Segv);
            }
            return ExitStatus::Exited(1);
        }
    }
    ExitStatus::Exited(0)
}

/// The incremental-checkpoint contract over the journal: an exploration
/// that appends one O(delta) record per batch, is killed, and recovers from
/// the journal resumes with the *identical* remaining batch sequence — the
/// same fixed-seed byte-identity a full snapshot guarantees, at delta cost.
#[test]
fn journaled_explorer_kill_and_resume_reproduces_the_uninterrupted_run() {
    let dir = temp_dir("lfi-store-explorer");
    let journal_path = dir.join("exploration.lfij");
    let lfi = lfi_over_libc();
    let build = || lfi.explore(&Exhaustive, &["libc.so.6"]).unwrap().seed(77).batch_size(6);

    // The uninterrupted run, batch report by batch report.
    let mut full = build();
    let mut full_reports = Vec::new();
    while let Some(report) = full.step(setup, workload) {
        full_reports.push(report);
    }
    assert!(full_reports.len() > 3, "enough batches to kill one mid-run");

    // The journaled run: snapshot at creation, one delta per batch.
    let mut live = build();
    let mut journal = ExplorationJournal::create(&journal_path, &live.store()).unwrap();
    let mut reports = Vec::new();
    for _ in 0..3 {
        reports.push(live.step(setup, workload).unwrap());
        journal.append_delta(&live.take_delta()).unwrap();
    }
    assert_eq!(journal.deltas_since_snapshot(), 3, "one O(delta) record per batch, no compaction yet");
    let live_store = live.store();
    assert_eq!(journal.state(), &live_store, "the folded journal state tracks the live explorer exactly");
    drop(journal);
    drop(live); // the kill

    // Recovery is byte-identical to the last durable point, through both
    // the typed journal and the facade's file loader.
    let recovered = ExplorationJournal::open(&journal_path).unwrap();
    assert_eq!(recovered.state(), &live_store);
    assert_eq!(encode_exploration_store(recovered.state()), encode_exploration_store(&live_store));
    assert_eq!(&lfi.load_exploration(&journal_path).unwrap(), recovered.state());

    // Resuming from the recovered store finishes the run identically.
    let mut resumed = lfi.resume_exploration(recovered.state(), &["libc.so.6"]).unwrap();
    while let Some(report) = resumed.step(setup, workload) {
        reports.push(report);
    }
    assert_eq!(reports, full_reports, "journaled kill+resume reproduces the identical batch sequence");
    assert_eq!(resumed.coverage_summary(), full.coverage_summary());
    assert_eq!(resumed.clusters(), full.clusters());

    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The XML that remains: plans and fault profiles
// ---------------------------------------------------------------------------

/// A plan exercising every element of the scenario dialect.
fn plan_document() -> String {
    r#"<?xml version="1.0"?>
<plan seed="7">
  <function name="read" inject="2" retval="-1" errno="EIO" calloriginal="false">
    <stacktrace><frame>load_config</frame></stacktrace>
  </function>
  <function name="write" inject="1" calloriginal="true">
    <modify argument="3" op="sub" value="10" />
  </function>
  <function name="close" probability="0.5">
    <choice retval="-1"><side-effect type="TLS" module="libc.so.6" offset="12FFF4">-9</side-effect></choice>
  </function>
</plan>
"#
    .to_owned()
}

/// A two-function fault profile with side effects.
fn profile_document() -> String {
    r#"<?xml version="1.0"?>
<profile library="libc.so.6" platform="Linux/x86">
  <function name="close">
    <error-codes retval="-1">
      <side-effect type="TLS" module="libc.so.6" offset="12FFF4">-9</side-effect>
      <side-effect type="TLS" module="libc.so.6" offset="12FFF4">-5</side-effect>
    </error-codes>
  </function>
  <function name="read"><error-codes retval="-1" /></function>
</profile>
"#
    .to_owned()
}

/// Runs `text` through both XML parsers.  Each must return `Ok` or its
/// typed error, which renders a message and, for an XML error, names a
/// byte offset inside the input; a panic fails the test.
fn parses_or_fails_typed(text: &str) {
    let within = |error: &XmlError| match error {
        XmlError::UnexpectedEof { offset }
        | XmlError::MismatchedTag { offset, .. }
        | XmlError::UnknownEntity { offset, .. }
        | XmlError::Syntax { offset, .. }
        | XmlError::TrailingContent { offset }
        | XmlError::TooDeep { offset } => *offset <= text.len(),
        _ => true,
    };
    if let Err(error) = Plan::from_xml(text) {
        assert!(!error.to_string().is_empty(), "{text:?}");
        if let ScenarioError::Xml(xml) = &error {
            assert!(within(xml), "{xml:?} lies outside {text:?}");
        }
    }
    if let Err(error) = FaultProfile::from_xml(text) {
        assert!(!error.to_string().is_empty(), "{text:?}");
        if let ProfileError::Xml(xml) = &error {
            assert!(within(xml), "{xml:?} lies outside {text:?}");
        }
    }
}

/// Every prefix of a valid plan and a valid profile document parses or
/// fails with a typed error.
#[test]
fn every_prefix_of_a_plan_or_profile_document_fails_typed() {
    let plan = plan_document();
    let profile = profile_document();
    assert!(Plan::from_xml(&plan).is_ok_and(|plan| plan.len() == 3), "the plan fixture parses");
    assert!(FaultProfile::from_xml(&profile).is_ok_and(|profile| profile.function_count() == 2));
    for document in [&plan, &profile] {
        for cut in 0..document.len() {
            parses_or_fails_typed(&String::from_utf8_lossy(&document.as_bytes()[..cut]));
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests: byte-identity and hostility
// ---------------------------------------------------------------------------

fn arb_cell() -> impl Strategy<Value = FaultCell> {
    ("[a-z_]{2,10}", 1u64..20, -64i64..64, proptest::option::of(1i64..64)).prop_map(
        |(function, call_ordinal, retval, errno)| FaultCell {
            function: Symbol::intern(&function),
            call_ordinal,
            retval,
            errno,
        },
    )
}

fn arb_outcome() -> impl Strategy<Value = OutcomeClass> {
    prop_oneof![
        Just(OutcomeClass::Success),
        (1i32..120).prop_map(OutcomeClass::Failure),
        Just(OutcomeClass::Crash(Signal::Segv)),
        Just(OutcomeClass::Crash(Signal::Abort)),
    ]
}

fn arb_coverage() -> impl Strategy<Value = FunctionCoverage> {
    (0u64..60, proptest::collection::btree_set((1u64..9, -64i64..64, proptest::option::of(1i64..64)), 0..4))
        .prop_map(|(observed_calls, triggered)| FunctionCoverage { observed_calls, triggered })
}

fn arb_cluster() -> impl Strategy<Value = CrashCluster> {
    (arb_cell(), proptest::collection::vec("[a-z_]{2,8}", 0..4), arb_outcome(), 1u64..9, "[a-z0-9_]{1,16}").prop_map(
        |(example, stack, outcome, count, example_case)| CrashCluster {
            function: example.function,
            stack: stack.iter().map(|s| Symbol::intern(s)).collect(),
            outcome,
            count,
            example,
            example_case,
        },
    )
}

fn arb_exploration_store() -> impl Strategy<Value = ExplorationStore> {
    let config = (any::<u64>(), 1usize..32, 1usize..8, any::<bool>());
    let budgets =
        (proptest::option::of(1u64..10_000), proptest::option::of(1u64..10_000), proptest::option::of(1u64..100_000));
    let progress = (0u64..50, 0u64..5_000, any::<bool>(), any::<bool>(), 0u64..10_000);
    let cells = (
        proptest::collection::vec((arb_cell(), -5i32..5), 0..8),
        proptest::collection::vec(arb_cell(), 0..8),
        proptest::collection::vec(arb_cell(), 0..8),
        proptest::collection::btree_set("[a-z_]{2,8}", 0..4),
    );
    let folds = (
        proptest::collection::vec(("[a-z_]{2,8}", arb_coverage()), 0..4),
        proptest::collection::vec(arb_cluster(), 0..4),
    );
    (config, budgets, progress, cells, folds).prop_map(
        |(
            (seed, batch_size, parallelism, halt_on_crash),
            (case_budget, injection_budget, time_budget_ms),
            (batch_index, rng_draws, probe_done, crash_found, cases_executed),
            (frontier, executed, unreached, pruned),
            (coverage, clusters),
        )| {
            // Coverage is keyed by function name: dedup through a map.
            let coverage: std::collections::BTreeMap<String, FunctionCoverage> = coverage.into_iter().collect();
            ExplorationStore {
                seed,
                batch_size,
                parallelism,
                halt_on_crash,
                case_budget,
                injection_budget,
                time_budget_ms,
                universe: frontier.len() + executed.len() + 7,
                batch_index,
                rng_draws,
                probe_done,
                crash_found,
                cases_executed,
                injections_performed: cases_executed / 2,
                elapsed_ms: cases_executed * 3,
                frontier: frontier.into_iter().map(|(cell, priority)| FrontierCell { cell, priority }).collect(),
                executed,
                unreached,
                pruned_functions: pruned.iter().map(|name| Symbol::intern(name)).collect(),
                coverage: coverage.into_iter().map(|(name, entry)| (Symbol::intern(&name), entry)).collect(),
                clusters,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary exploration stores decode to themselves, and re-encoding
    /// the decoded store reproduces the bytes exactly.
    #[test]
    fn exploration_stores_round_trip_through_the_binary_codec_byte_identically(store in arb_exploration_store()) {
        let bytes = encode_exploration_store(&store);
        let decoded = lfi::store::decode_exploration_store(&bytes).unwrap();
        prop_assert_eq!(&decoded, &store);
        prop_assert_eq!(encode_exploration_store(&decoded), bytes);
    }

    /// Arbitrary profiles under arbitrary keys decode to the same store,
    /// and re-encoding reproduces the bytes exactly.
    #[test]
    fn profile_stores_round_trip_through_the_binary_codec_byte_identically(
        entries in proptest::collection::vec((lfi_test_profiles::arb_profile(), any::<u64>(), any::<bool>()), 0..5),
    ) {
        let store = ProfileStore::new();
        for (profile, code_hash, keep_platform) in entries {
            let platform = if keep_platform { profile.platform.clone() } else { None };
            store.insert(ProfileKey::new(profile.library.clone(), platform, code_hash), profile);
        }
        let bytes = lfi::store::encode_profile_store(&store);
        let decoded = lfi::store::decode_profile_store(&bytes).unwrap();
        prop_assert_eq!(&decoded, &store);
        prop_assert_eq!(lfi::store::encode_profile_store(&decoded), bytes);
    }

    /// Raw hostile bytes through every decoder — the binary codec and the
    /// two XML documents LFI reads (plans and fault profiles): always a
    /// typed error, never a panic.
    #[test]
    fn hostile_bytes_never_panic_in_the_decoders(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
        let _ = lfi::store::decode_exploration_store(&bytes);
        let _ = lfi::store::decode_exploration_delta(&bytes);
        let _ = lfi::store::decode_profile_store(&bytes);
        let _ = lfi::store::decode_profile_entry(&bytes);
        let _ = lfi::store::decode_ack(&bytes);
        parses_or_fails_typed(&String::from_utf8_lossy(&bytes));
    }

    /// Valid plan and profile documents with one byte flipped parse or
    /// fail with a typed error, never a panic.
    #[test]
    fn flipped_plan_and_profile_documents_never_panic(
        at in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        for document in [plan_document(), profile_document()] {
            let mut bytes = document.into_bytes();
            let at = at.index(bytes.len());
            bytes[at] ^= mask;
            parses_or_fails_typed(&String::from_utf8_lossy(&bytes));
        }
    }

    /// Fuzzed prefixes of a *valid* journal file — optionally with one byte
    /// flipped — through every file loader: Ok or a path-naming Err, never
    /// a panic.
    #[test]
    fn fuzzed_prefixes_of_valid_files_never_panic(
        cut in any::<prop::sample::Index>(),
        flip in proptest::option::of((any::<prop::sample::Index>(), 1u8..=255)),
    ) {
        let mut bytes = Vec::new();
        format::write_header(&mut bytes);
        let (kind, payload) = Record::ExplorationSnapshot(base_store()).encode();
        format::write_frame(&mut bytes, kind, &payload);
        let (kind, payload) = Record::ExplorationDelta(delta_one()).encode();
        format::write_frame(&mut bytes, kind, &payload);

        let cut = cut.index(bytes.len() + 1);
        let mut bytes = bytes[..cut].to_vec();
        if let Some((at, mask)) = flip {
            if !bytes.is_empty() {
                let at = at.index(bytes.len());
                bytes[at] ^= mask;
            }
        }

        let dir = temp_dir("lfi-store-fuzz");
        let path = dir.join("fuzzed.lfij");
        fs::write(&path, &bytes).unwrap();
        if let Err(error) = lfi::store::load_exploration(&path) {
            prop_assert!(error.to_string().contains("fuzzed.lfij"), "error must name the path: {}", error);
        }
        let _ = lfi::store::load_profile_store(&path);
        let _ = ExplorationJournal::open(&path);
        let _ = Journal::open(&path);
        fs::remove_dir_all(&dir).ok();
    }
}

/// The profile generators, shared in spirit with `tests/property_tests.rs`
/// (each integration-test binary is standalone, so the strategies live
/// here too).
mod lfi_test_profiles {
    use lfi::profile::{ErrorReturn, FaultProfile, FunctionProfile, SideEffect};
    use proptest::prelude::*;

    fn arb_side_effect() -> impl Strategy<Value = SideEffect> {
        (0u32..3, "[a-z]{3,10}", 0u32..0xffff, -64i64..64).prop_map(|(kind, module, offset, value)| match kind {
            0 => SideEffect::tls(module, offset, value),
            1 => SideEffect::global(module, offset, value),
            _ => SideEffect::output_arg(module, offset % 8, value),
        })
    }

    pub fn arb_profile() -> impl Strategy<Value = FaultProfile> {
        let function = (
            "[a-z_][a-z0-9_]{0,12}",
            proptest::collection::vec((-64i64..64, proptest::collection::vec(arb_side_effect(), 0..3)), 0..4),
        )
            .prop_map(|(name, errors)| FunctionProfile {
                name,
                error_returns: errors
                    .into_iter()
                    .map(|(retval, side_effects)| ErrorReturn { retval, side_effects })
                    .collect(),
            });
        ("lib[a-z]{2,8}", proptest::collection::vec(function, 0..6)).prop_map(|(library, functions)| FaultProfile {
            library,
            platform: Some("Linux/x86".to_owned()),
            functions,
        })
    }
}
