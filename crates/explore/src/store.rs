//! The [`ExplorationStore`]: a lossless snapshot of exploration state.
//!
//! `lfi-store` encodes it (`encode_exploration_store`, snapshot files and
//! journals); a killed campaign reloads it and resumes deterministically
//! via [`Explorer::resume`](crate::Explorer::resume).

use lfi_intern::Symbol;
use lfi_scenario::FaultCell;

use crate::explorer::{CrashCluster, FrontierCell, FunctionCoverage};

/// The complete serializable state of an [`Explorer`](crate::Explorer):
/// configuration, budgets, the frontier *in scheduling order*, the coverage
/// map (keyed by interned symbols in memory, by name on disk), the crash
/// cluster table, and the RNG stream position.  `lfi-store`'s codec
/// round-trips it losslessly, so `Explorer::resume` continues with exactly
/// the remaining batch sequence of the snapshotted run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationStore {
    /// RNG seed of the exploration.
    pub seed: u64,
    /// Cells per batch.
    pub batch_size: usize,
    /// Worker threads per batch.
    pub parallelism: usize,
    /// Stop at the first crashing batch.
    pub halt_on_crash: bool,
    /// Remaining-case bound, if any (total, not remaining — `cases_executed`
    /// counts against it).
    pub case_budget: Option<u64>,
    /// Total-injection bound, if any.
    pub injection_budget: Option<u64>,
    /// Wall-clock bound in milliseconds, if any.
    pub time_budget_ms: Option<u64>,
    /// Size of the enumerated seed universe.
    pub universe: usize,
    /// Batches executed so far.
    pub batch_index: u64,
    /// Draws consumed from the RNG stream.
    pub rng_draws: u64,
    /// Whether the probe batch ran.
    pub probe_done: bool,
    /// Whether any batch produced a signal death.
    pub crash_found: bool,
    /// Cases executed so far (probe included).
    pub cases_executed: u64,
    /// Injections performed so far.
    pub injections_performed: u64,
    /// Wall-clock time spent so far, milliseconds.
    pub elapsed_ms: u64,
    /// Pending cells, in scheduling order, with priorities.
    pub frontier: Vec<FrontierCell>,
    /// Cells already run, sorted by cell key.
    pub executed: Vec<FaultCell>,
    /// Cells whose planned injection is known to never fire (executed
    /// without triggering, or depth-pruned), sorted by cell key.
    pub unreached: Vec<FaultCell>,
    /// Functions pruned wholesale, sorted by name.
    pub pruned_functions: Vec<Symbol>,
    /// Per-function coverage, sorted by name.
    pub coverage: Vec<(Symbol, FunctionCoverage)>,
    /// Crash clusters, in discovery order.
    pub clusters: Vec<CrashCluster>,
}
