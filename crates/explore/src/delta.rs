//! The [`ExplorationDelta`]: what one batch changed, as a replayable record.
//!
//! A full [`ExplorationStore`] snapshot is O(state); a delta is O(what the
//! batch touched).  The explorer tracks every mutation it makes between two
//! [`Explorer::take_delta`](crate::Explorer::take_delta) calls and folds
//! them into one delta whose [`ExplorationDelta::apply`] is exact:
//!
//! ```text
//!   store(T0)  +  delta(T0→T1)  +  delta(T1→T2)  ==  store(T2)
//! ```
//!
//! byte for byte (the equation `lfi-store`'s write-ahead journal is built
//! on).  Touched entries carry *absolute* final values — a coverage record
//! replaces the function's whole entry, a frontier upsert carries the final
//! priority — so applying a delta never needs the intermediate states, and
//! re-applying the same delta is idempotent.

use std::collections::HashSet;

use lfi_intern::Symbol;
use lfi_scenario::FaultCell;

use crate::explorer::{CrashCluster, FrontierCell, FunctionCoverage};
use crate::ExplorationStore;

/// The state changes of one exploration step (or any span between two
/// [`Explorer::take_delta`](crate::Explorer::take_delta) calls).
///
/// Every collection is sorted by the process-independent cell/name key
/// (clusters keep discovery order), so a delta's serialized form is
/// byte-deterministic across runs and processes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplorationDelta {
    /// Absolute batch counter after the span.
    pub batch_index: u64,
    /// Absolute RNG stream position after the span.
    pub rng_draws: u64,
    /// Whether the probe batch has run.
    pub probe_done: bool,
    /// Whether any batch has produced a signal death.
    pub crash_found: bool,
    /// Absolute cases-executed counter after the span.
    pub cases_executed: u64,
    /// Absolute injections-performed counter after the span.
    pub injections_performed: u64,
    /// Absolute wall-clock counter after the span, milliseconds.
    pub elapsed_ms: u64,
    /// Cells no longer pending (drained into a batch, pruned, or executed).
    pub frontier_remove: Vec<FaultCell>,
    /// Cells pending after the span whose presence or priority changed,
    /// with their absolute final priorities.
    pub frontier_upsert: Vec<FrontierCell>,
    /// Cells newly executed in the span.
    pub executed: Vec<FaultCell>,
    /// Cells newly proven unreachable in the span.
    pub unreached: Vec<FaultCell>,
    /// Functions newly pruned wholesale in the span.
    pub pruned_functions: Vec<Symbol>,
    /// Absolute replacement entries for every coverage record the span
    /// touched.
    pub coverage: Vec<(Symbol, FunctionCoverage)>,
    /// Absolute replacement entries for every cluster the span touched, in
    /// discovery order (new clusters appended in the order they appeared).
    pub clusters: Vec<CrashCluster>,
}

impl ExplorationDelta {
    /// True when the span changed nothing.
    pub fn is_empty(&self) -> bool {
        self.frontier_remove.is_empty()
            && self.frontier_upsert.is_empty()
            && self.executed.is_empty()
            && self.unreached.is_empty()
            && self.pruned_functions.is_empty()
            && self.coverage.is_empty()
            && self.clusters.is_empty()
    }

    /// Applies the delta to a snapshot, producing the post-span store.  The
    /// result is byte-identical to the [`Explorer::store`](crate::Explorer)
    /// snapshot taken at the matching
    /// [`take_delta`](crate::Explorer::take_delta) point.
    pub fn apply(&self, store: &mut ExplorationStore) {
        store.batch_index = self.batch_index;
        store.rng_draws = self.rng_draws;
        store.probe_done = self.probe_done;
        store.crash_found = self.crash_found;
        store.cases_executed = self.cases_executed;
        store.injections_performed = self.injections_performed;
        store.elapsed_ms = self.elapsed_ms;

        // The store's collections are kept in their canonical orders
        // (frontier: priority descending then cell key; everything else:
        // sorted by name/cell key), so a delta folds in with linear merge
        // passes — O(store + delta) with no re-sort of untouched entries.
        if !self.frontier_remove.is_empty() || !self.frontier_upsert.is_empty() {
            let mut dropped: HashSet<FaultCell> = self.frontier_remove.iter().copied().collect();
            dropped.extend(self.frontier_upsert.iter().map(|entry| entry.cell));
            store.frontier.retain(|entry| !dropped.contains(&entry.cell));
            if !self.frontier_upsert.is_empty() {
                let mut added = self.frontier_upsert.clone();
                added.sort_by(frontier_order);
                store.frontier = merge_sorted(std::mem::take(&mut store.frontier), added, frontier_order);
            }
        }

        merge_cells(&mut store.executed, &self.executed);
        merge_cells(&mut store.unreached, &self.unreached);
        if !self.pruned_functions.is_empty() {
            store.pruned_functions.extend(self.pruned_functions.iter().copied());
            store.pruned_functions.sort_by_key(|s| s.as_str());
            store.pruned_functions.dedup();
        }
        for (symbol, function) in &self.coverage {
            match store.coverage.binary_search_by_key(&symbol.as_str(), |(s, _)| s.as_str()) {
                Ok(index) => store.coverage[index].1 = function.clone(),
                Err(index) => store.coverage.insert(index, (*symbol, function.clone())),
            }
        }
        for cluster in &self.clusters {
            match store
                .clusters
                .iter_mut()
                .find(|c| c.matches(cluster.function, &cluster.stack, cluster.outcome))
            {
                Some(existing) => *existing = cluster.clone(),
                None => store.clusters.push(cluster.clone()),
            }
        }
    }
}

/// The frontier's scheduling order: priority descending, then the total
/// cell key — the same order `Explorer::store` emits.
fn frontier_order(a: &FrontierCell, b: &FrontierCell) -> std::cmp::Ordering {
    b.priority.cmp(&a.priority).then_with(|| a.cell.sort_key().cmp(&b.cell.sort_key()))
}

/// Merges two lists sorted by `order` into one, in a single linear pass.
fn merge_sorted<T>(a: Vec<T>, b: Vec<T>, order: fn(&T, &T) -> std::cmp::Ordering) -> Vec<T> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                if order(x, y) == std::cmp::Ordering::Greater {
                    merged.push(b.next().unwrap());
                } else {
                    merged.push(a.next().unwrap());
                }
            }
            (Some(_), None) => merged.push(a.next().unwrap()),
            (None, Some(_)) => merged.push(b.next().unwrap()),
            (None, None) => break,
        }
    }
    merged
}

/// Merges newly recorded cells into a sorted, deduplicated cell list with
/// one linear pass.
fn merge_cells(into: &mut Vec<FaultCell>, new: &[FaultCell]) {
    if new.is_empty() {
        return;
    }
    let mut added = new.to_vec();
    added.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    added.dedup();
    let old = std::mem::take(into);
    into.reserve(old.len() + added.len());
    let (mut old, mut added) = (old.into_iter().peekable(), added.into_iter().peekable());
    loop {
        match (old.peek(), added.peek()) {
            (Some(a), Some(b)) => match a.sort_key().cmp(&b.sort_key()) {
                std::cmp::Ordering::Less => into.push(old.next().unwrap()),
                std::cmp::Ordering::Greater => into.push(added.next().unwrap()),
                std::cmp::Ordering::Equal => {
                    into.push(old.next().unwrap());
                    added.next();
                }
            },
            (Some(_), None) => into.push(old.next().unwrap()),
            (None, Some(_)) => into.push(added.next().unwrap()),
            (None, None) => break,
        }
    }
}
