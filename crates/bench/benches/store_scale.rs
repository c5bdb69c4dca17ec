//! Persistence at survey scale: the `lfi-store` snapshot and journal over
//! a 10,000-function corpus (`SurveyConfig::scaled(10_000)` through the
//! fast profile generator).
//!
//! * `snapshot_write` — full binary exploration snapshot to disk;
//! * `binary_load`    — load of that snapshot;
//! * `delta_append`   — one O(delta) journal append (a 32-cell batch);
//! * `fold_delta`     — the typed append: frame write + in-memory fold;
//! * `compact`        — rewriting the journal as one fresh snapshot.
//!
//! CI gates `delta_append * 10 <= snapshot_write` (incremental checkpoints
//! are at least 10x cheaper than full snapshots).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lfi_corpus::{survey_profiles, SurveyConfig};
use lfi_explore::{ExplorationDelta, ExplorationStore, FrontierCell, FunctionCoverage};
use lfi_intern::Symbol;
use lfi_scenario::FaultCell;
use lfi_store::{load_exploration, save_exploration, ExplorationJournal, Journal, Record};

const CORPUS_FUNCTIONS: usize = 10_000;
const DELTA_BATCH: usize = 32;

/// An exploration store shaped like a campaign over the scaled survey
/// corpus: one frontier cell per profiled function, coverage entries for a
/// quarter of them.
fn survey_exploration_store() -> ExplorationStore {
    let profiles = survey_profiles(SurveyConfig::scaled(CORPUS_FUNCTIONS));
    let mut frontier = Vec::new();
    let mut coverage = Vec::new();
    for profile in &profiles {
        for (index, function) in profile.functions.iter().enumerate() {
            let symbol = Symbol::intern(&function.name);
            let retval = function.error_returns.first().map_or(-1, |e| e.retval);
            frontier.push(FrontierCell {
                cell: FaultCell { function: symbol, call_ordinal: 1, retval, errno: Some(5) },
                priority: (index % 7) as i32 - 3,
            });
            if index % 4 == 0 {
                coverage.push((
                    symbol,
                    FunctionCoverage {
                        observed_calls: 1 + index as u64 % 9,
                        triggered: [(1u64, retval, Some(5i64))].into_iter().collect(),
                    },
                ));
            }
        }
    }
    let universe = frontier.len();
    ExplorationStore {
        seed: 2009,
        batch_size: DELTA_BATCH,
        parallelism: 4,
        halt_on_crash: false,
        case_budget: None,
        injection_budget: None,
        time_budget_ms: None,
        universe,
        batch_index: 12,
        rng_draws: 4096,
        probe_done: true,
        crash_found: false,
        cases_executed: 3000,
        injections_performed: 2500,
        elapsed_ms: 90_000,
        frontier,
        executed: Vec::new(),
        unreached: Vec::new(),
        pruned_functions: Vec::new(),
        coverage,
        clusters: Vec::new(),
    }
}

/// One batch's delta against the big store: `DELTA_BATCH` cells leave the
/// frontier and land in `executed`, one coverage entry is touched.  Deltas
/// carry absolute values, so re-applying the same delta each iteration is
/// idempotent — exactly what the append benchmark wants.
fn one_batch_delta(store: &ExplorationStore) -> ExplorationDelta {
    let batch: Vec<FaultCell> = store.frontier.iter().take(DELTA_BATCH).map(|f| f.cell).collect();
    let mut executed = batch.clone();
    executed.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    ExplorationDelta {
        batch_index: store.batch_index + 1,
        rng_draws: store.rng_draws + 64,
        probe_done: true,
        crash_found: false,
        cases_executed: store.cases_executed + DELTA_BATCH as u64,
        injections_performed: store.injections_performed + DELTA_BATCH as u64,
        elapsed_ms: store.elapsed_ms + 450,
        frontier_remove: batch,
        frontier_upsert: Vec::new(),
        executed,
        unreached: Vec::new(),
        pruned_functions: Vec::new(),
        coverage: store.coverage.first().cloned().into_iter().collect(),
        clusters: Vec::new(),
    }
}

fn bench_store_scale(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("lfi-store-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let store = survey_exploration_store();
    assert!(store.universe >= CORPUS_FUNCTIONS * 7 / 10, "scaled survey keeps its non-void majority");
    let delta = one_batch_delta(&store);

    let binary_path = dir.join("survey.lfis");
    save_exploration(&binary_path, &store).unwrap();

    let mut group = c.benchmark_group("store_scale");
    group.sample_size(10);

    group.bench_function("snapshot_write", |b| {
        let path = dir.join("write.lfis");
        b.iter(|| {
            save_exploration(&path, black_box(&store)).unwrap();
            black_box(())
        })
    });

    group.bench_function("binary_load", |b| {
        b.iter(|| {
            let loaded = load_exploration(black_box(&binary_path)).unwrap();
            assert_eq!(loaded.universe, store.universe);
            black_box(loaded)
        })
    });

    group.bench_function("delta_append", |b| {
        let path = dir.join("append.lfij");
        // The untyped journal layer: appending one framed delta record is
        // the pure O(delta) write-ahead cost the CI ratio gates against the
        // full snapshot write.  (The typed `ExplorationJournal` adds the
        // in-memory fold on top — covered by `fold_delta` below.)
        let mut journal = Journal::create(&path, &Record::ExplorationSnapshot(store.clone())).unwrap();
        let record = Record::ExplorationDelta(delta.clone());
        b.iter(|| {
            journal.append(black_box(&record)).unwrap();
            black_box(())
        })
    });

    group.bench_function("fold_delta", |b| {
        // The typed journal's full append: frame write plus folding the
        // delta into the in-memory state (idempotent, so re-appending the
        // same batch each iteration is well-defined).
        let path = dir.join("fold.lfij");
        let mut journal = ExplorationJournal::create(&path, &store).unwrap().compact_every(u64::MAX);
        b.iter(|| {
            journal.append_delta(black_box(&delta)).unwrap();
            black_box(())
        })
    });

    group.bench_function("compact", |b| {
        let path = dir.join("compact.lfij");
        let mut journal = ExplorationJournal::create(&path, &store).unwrap().compact_every(u64::MAX);
        journal.append_delta(&delta).unwrap();
        b.iter(|| {
            journal.compact().unwrap();
            black_box(())
        })
    });

    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_store_scale);
criterion_main!(benches);
