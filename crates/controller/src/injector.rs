//! The runtime half of the LFI controller: interceptor synthesis and trigger
//! evaluation (§5.1).
//!
//! The per-call dispatch path is string-free and sharded: a plan is compiled
//! once into per-function slots ([`lfi_scenario::CompiledPlan`]), each
//! synthesized stub captures its slot index, per-function call counters are
//! lock-free atomics, and RNG streams and observed-return tallies live
//! behind per-slot locks.  The one injector-wide lock guards only the
//! injection log, and is taken only when a trigger actually fires —
//! pass-through traffic on different functions never contends.
//!
//! Stubs are additionally *specialized* at synthesis time: a slot whose plan
//! entries reduce to a single deterministic `(nth-call, retval, errno)` fault
//! (the shape every exploration [`FaultCell`](lfi_scenario::FaultCell)
//! compiles to) gets a stub with those parameters baked in, so its hot
//! pass-through path never walks entries or branches on trigger kinds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lfi_intern::Symbol;
use lfi_profile::{FaultProfile, SideEffectKind};
use lfi_runtime::{CallContext, NativeLibrary};
use lfi_scenario::{CompiledEntry, CompiledFunction, CompiledSideEffect, Plan, StubSpecialization};

use crate::{InjectionRecord, TestLog};

/// Name given to synthesized interceptor libraries.
pub const INTERCEPTOR_LIBRARY_NAME: &str = "liblfi_interceptor.so";

/// The injection engine: owns the fault scenario (compiled to symbol-keyed
/// per-function slots), the per-function call counters (the `call_count`
/// static of the paper's stub), per-function random number generators for
/// probabilistic triggers, and the test log.
///
/// An [`Injector`] is cheap to clone; clones share the same state, which is
/// how every synthesized stub reaches the shared counters and log.
#[derive(Clone)]
pub struct Injector {
    shared: Arc<InjectorShared>,
}

struct InjectorShared {
    seed: u64,
    /// One slot per intercepted function, in first-appearance order; stubs
    /// index this directly (the slot index is baked into each stub at
    /// synthesis time, so dispatch does no lookup at all).
    slots: Vec<FunctionSlot>,
    /// Injections in the order they happened, in compact symbol/index form;
    /// materialized into [`InjectionRecord`]s only when a report is taken.
    log: Mutex<Vec<RawInjection>>,
    /// A shared pool of remaining injections, when the campaign runs under an
    /// [`ExecutionPolicy::injection_budget`](crate::ExecutionPolicy): every
    /// firing trigger first takes one token, and an empty pool demotes the
    /// call to a pass-through.  Shared across the injectors of concurrently
    /// running cases, so parallel workers cannot collectively overshoot.
    budget: Option<Arc<AtomicUsize>>,
}

/// The per-function shard: immutable compiled entries, the call counter, and
/// the remaining mutable trigger state behind its own lock.
struct FunctionSlot {
    function: CompiledFunction,
    /// Calls intercepted so far — the `call_count` static of the paper's
    /// stub.  Hoisted out of the slot lock so specialized stubs (and the
    /// counting half of the general stub) dispatch on a single atomic
    /// increment; each intercepted call still observes a unique ordinal.
    calls: AtomicU64,
    state: Mutex<SlotState>,
}

struct SlotState {
    rng: StdRng,
    /// Return values observed on calls that reached the original definition,
    /// with occurrence counts — the raw material for dynamic profile
    /// refinement.
    observed: BTreeMap<i64, u64>,
}

/// One injection in compact form: slot/entry/choice indices instead of
/// names, stack frames as symbols.  No strings are allocated when this is
/// recorded; names are resolved when the log is materialized.
#[derive(Clone)]
struct RawInjection {
    slot: u32,
    entry: u32,
    choice: Option<u32>,
    call_number: u64,
    retval: Option<i64>,
    errno: Option<i64>,
    call_original: bool,
    stack: Vec<Symbol>,
}

/// An error return value observed at run time that the static fault profile
/// does not list.
///
/// §3.1 notes two ways static profiles can be incomplete: error codes hidden
/// behind indirect calls (false negatives) and the general reliance on what
/// the binary alone reveals.  Related work (Süßkraut & Fetzer, §7) learns
/// error values by observing execution; the LFI controller is in the perfect
/// position to do the same for free, because every pass-through call already
/// flows through its stubs.  A finding is a *candidate* new fault — it still
/// needs the usual vetting before being added to a profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefinementFinding {
    /// The intercepted function.
    pub function: String,
    /// The observed return value missing from the profile.
    pub value: i64,
    /// How many times it was observed.
    pub occurrences: u64,
}

/// What a stub decided to do for one intercepted call: indices into the
/// slot's compiled entries plus the resolved return value/errno.  `Copy`, so
/// carrying it out of the slot lock costs nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Decision {
    entry_index: usize,
    choice_index: Option<usize>,
    retval: Option<i64>,
    errno: Option<i64>,
    call_number: u64,
}

/// Decorrelates sibling slot RNG streams (SplitMix64 finalizer over the slot
/// index) while keeping them a pure function of the plan seed, so runs stay
/// reproducible.
fn slot_seed(seed: u64, slot_index: usize) -> u64 {
    let mut z = seed ^ (slot_index as u64).wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Injector {
    /// Creates an injection engine for a fault scenario, compiling the plan
    /// to symbol-keyed per-function slots (the resolve-once half of the
    /// fast path).  The random seed is taken from the plan (or 0 when
    /// absent) so runs are reproducible.  See [`Injector::with_budget`].
    pub fn new(plan: &Plan) -> Self {
        Self::with_budget(plan, None)
    }

    /// Creates an injection engine that additionally draws every injection
    /// from a shared token pool: each firing trigger consumes one token, and
    /// once the pool is empty every further call passes through uninjected.
    /// The campaign driver hands the *same* pool to every case of a budgeted
    /// campaign, which is what makes the budget a hard global bound even
    /// under `parallelism(n)`.
    ///
    /// The plan is borrowed, not kept: the injector holds only its compiled
    /// slots ([`Plan::compile`], linear in the plan's size), so building one
    /// per case copies no authored plan.
    pub fn with_budget(plan: &Plan, budget: Option<Arc<AtomicUsize>>) -> Self {
        let seed = plan.seed.unwrap_or(0);
        let compiled = plan.compile();
        let slots = compiled
            .functions
            .into_iter()
            .enumerate()
            .map(|(index, function)| FunctionSlot {
                function,
                calls: AtomicU64::new(0),
                state: Mutex::new(SlotState {
                    rng: StdRng::seed_from_u64(slot_seed(seed, index)),
                    observed: BTreeMap::new(),
                }),
            })
            .collect();
        Self { shared: Arc::new(InjectorShared { seed, slots, log: Mutex::new(Vec::new()), budget }) }
    }

    /// Takes one token from the shared injection budget; `true` when no
    /// budget is configured.  Lock-free: a compare-exchange loop over the
    /// shared counter, so concurrent stubs in different worker processes
    /// serialize only on this one atomic.
    fn try_consume_budget(&self) -> bool {
        match &self.shared.budget {
            None => true,
            Some(budget) => budget.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1)).is_ok(),
        }
    }

    /// The return values observed on calls that reached the original library
    /// (either untriggered calls or pass-through injections), per function,
    /// with occurrence counts.
    pub fn observed_returns(&self) -> BTreeMap<String, BTreeMap<i64, u64>> {
        let mut result = BTreeMap::new();
        for slot in &self.shared.slots {
            let state = slot.state.lock();
            if !state.observed.is_empty() {
                result.insert(slot.function.symbol.as_str().to_owned(), state.observed.clone());
            }
        }
        result
    }

    /// Diffs the observed behaviour against a set of static fault profiles
    /// and returns every *negative* return value seen at run time that no
    /// profile lists for that function — dynamic refinement of the static
    /// analysis (§3.1's indirect-call false negatives are the typical cause).
    pub fn refinement_findings(&self, profiles: &[FaultProfile]) -> Vec<RefinementFinding> {
        let observed = self.observed_returns();
        let mut findings = Vec::new();
        for (function, values) in observed {
            let profiled: Option<std::collections::BTreeSet<i64>> =
                profiles.iter().find_map(|p| p.function(&function)).map(|f| f.error_values());
            for (value, occurrences) in values {
                if value >= 0 {
                    continue;
                }
                let known = profiled.as_ref().is_some_and(|set| set.contains(&value));
                if !known {
                    findings.push(RefinementFinding { function: function.clone(), value, occurrences });
                }
            }
        }
        findings
    }

    /// The functions this injector will intercept, sorted by name — the
    /// same list as [`Plan::intercepted_functions`] on the plan it was
    /// built from.
    pub fn intercepted_functions(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.shared.slots.iter().map(|slot| slot.function.symbol.as_str().to_owned()).collect();
        names.sort_unstable();
        names
    }

    /// Synthesizes the interceptor library: one stub per function named in the
    /// plan.  Load it with [`lfi_runtime::Process::preload`] so it shadows the
    /// original definitions, exactly as `LD_PRELOAD` does for the real tool.
    pub fn synthesize_interceptor(&self) -> NativeLibrary {
        self.synthesize_interceptor_named(INTERCEPTOR_LIBRARY_NAME)
    }

    /// Synthesizes the interceptor library under a custom name.  Interceptors
    /// for multiple plans can coexist in one process (§6.4 runs libc, libapr
    /// and libaprutil interceptors simultaneously); they do not interfere
    /// because stubs are keyed purely by function symbol.  Each stub captures
    /// its slot index, so per-call dispatch performs no name lookup at all.
    ///
    /// Stubs are specialized per slot at synthesis time (see
    /// [`StubSpecialization`]): a function whose entries reduce to one
    /// deterministic `(nth-call, retval, errno)` fault gets a stub with those
    /// parameters baked in, whose miss path is a single counter bump and
    /// compare; every other entry mix gets the general entry-walking stub.
    pub fn synthesize_interceptor_named(&self, library_name: &str) -> NativeLibrary {
        let mut builder = NativeLibrary::builder(library_name);
        for (slot_index, slot) in self.shared.slots.iter().enumerate() {
            let engine = self.clone();
            builder = match slot.function.specialization() {
                StubSpecialization::DeterministicFault { ordinal, retval, errno } => builder
                    .function_sym(slot.function.symbol, move |ctx| {
                        engine.deterministic_stub(slot_index, ordinal, retval, errno, ctx)
                    }),
                StubSpecialization::General => {
                    builder.function_sym(slot.function.symbol, move |ctx| engine.stub_body(slot_index, ctx))
                }
            };
        }
        builder.build()
    }

    /// A snapshot of the log so far (names and side effects are resolved
    /// here, on the report path — never per call).  The intercepted-call
    /// total is the sum of the per-slot counters, so taking a snapshot is
    /// the only place the shards are read together.
    pub fn log(&self) -> TestLog {
        // Snapshot the compact records first (symbol-vec memcpys) so the log
        // lock is not held across the string-allocating materialization —
        // concurrently triggered stubs only ever wait for the memcpy.
        let raw = self.shared.log.lock().clone();
        let injections = raw.iter().map(|record| self.materialize(record)).collect();
        let mut calls_per_function: Vec<(Symbol, u64)> = self
            .shared
            .slots
            .iter()
            .filter_map(|slot| {
                let count = slot.calls.load(Ordering::Relaxed);
                (count > 0).then_some((slot.function.symbol, count))
            })
            .collect();
        calls_per_function.sort_unstable_by_key(|(symbol, _)| symbol.as_str());
        let intercepted_calls = calls_per_function.iter().map(|(_, count)| count).sum();
        TestLog { injections, intercepted_calls, calls_per_function }
    }

    /// The replay script distilled from the log so far (§5.2).
    pub fn replay_plan(&self) -> Plan {
        self.log().replay_plan()
    }

    /// Resets call counters, RNG streams, the log and the observed-return
    /// record, keeping the plan (used between repetitions of a workload).
    pub fn reset(&self) {
        for (index, slot) in self.shared.slots.iter().enumerate() {
            slot.calls.store(0, Ordering::Relaxed);
            let mut state = slot.state.lock();
            state.rng = StdRng::seed_from_u64(slot_seed(self.shared.seed, index));
            state.observed.clear();
        }
        self.shared.log.lock().clear();
    }

    /// Records a return value that came back from the original definition.
    fn record_observed(&self, slot_index: usize, value: i64) {
        let mut state = self.shared.slots[slot_index].state.lock();
        *state.observed.entry(value).or_insert(0) += 1;
    }

    /// Resolves one compact log record into the user-facing form.
    fn materialize(&self, record: &RawInjection) -> InjectionRecord {
        let slot = &self.shared.slots[record.slot as usize];
        let entry = &slot.function.entries[record.entry as usize];
        let side_effects = entry.side_effects_for(record.choice.map(|c| c as usize));
        InjectionRecord {
            function: slot.function.symbol,
            call_number: record.call_number,
            retval: record.retval,
            errno: record.errno,
            side_effects: side_effects.iter().copied().map(CompiledSideEffect::to_side_effect).collect(),
            call_original: record.call_original,
            stack: record.stack.clone(),
        }
    }

    /// The body shared by every synthesized stub.  Touches no state shared
    /// across functions: the slot's own lock covers the call count (from
    /// which the log's intercepted-call total is derived at snapshot time).
    fn stub_body(&self, slot_index: usize, ctx: &mut CallContext<'_>) -> i64 {
        let decision = self.decide(slot_index, ctx);
        match decision {
            None => {
                // No trigger fired: clean up and jump to the original, as the
                // paper's stub does.  If there is no original definition the
                // call degenerates to a no-op success.
                let result = ctx.call_next().unwrap_or(0);
                self.record_observed(slot_index, result);
                result
            }
            Some(decision) => self.apply(slot_index, decision, ctx),
        }
    }

    /// The specialized stub for a [`StubSpecialization::DeterministicFault`]
    /// slot: the trigger parameters are baked in at synthesis time, so the
    /// pass-through path is one atomic counter bump and one compare — no
    /// entry walk, no trigger-kind branching, no slot lock.  Behaviour
    /// (counters, budget, log records, observed returns) is identical to the
    /// general stub running the same single-entry plan.
    fn deterministic_stub(
        &self,
        slot_index: usize,
        ordinal: u64,
        retval: Option<i64>,
        errno: Option<i64>,
        ctx: &mut CallContext<'_>,
    ) -> i64 {
        let slot = &self.shared.slots[slot_index];
        let call_number = slot.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if call_number != ordinal || !self.try_consume_budget() {
            let result = ctx.call_next().unwrap_or(0);
            self.record_observed(slot_index, result);
            return result;
        }
        if let Some(errno) = errno {
            ctx.set_errno(errno);
        }
        let stack = ctx.stack().to_vec();
        self.shared.log.lock().push(RawInjection {
            slot: slot_index as u32,
            entry: 0,
            choice: None,
            call_number,
            retval,
            errno,
            call_original: false,
            stack,
        });
        retval.unwrap_or(0)
    }

    /// Evaluates the slot's triggers for one intercepted call.  Holds only
    /// the slot's own lock; calls to other functions proceed in parallel.
    fn decide(&self, slot_index: usize, ctx: &CallContext<'_>) -> Option<Decision> {
        let slot = &self.shared.slots[slot_index];
        let call_number = slot.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let mut state = slot.state.lock();

        // The stack excluding the frame of the intercepted call itself: what
        // the paper's `<stacktrace>` frames are matched against.  Inspected
        // in place — no snapshot, no allocation — and only when some trigger
        // for this function actually looks at the stack.
        let caller_stack: &[Symbol] = if slot.function.stack_sensitive {
            let stack = ctx.stack();
            &stack[..stack.len().saturating_sub(1)]
        } else {
            &[]
        };

        for (entry_index, entry) in slot.function.entries.iter().enumerate() {
            if !trigger_matches(entry, call_number, caller_stack, &mut state.rng) {
                continue;
            }
            if !self.try_consume_budget() {
                // The campaign-wide injection budget is spent: the trigger
                // matched but no token is left, so the call (and every later
                // one) passes through uninjected.
                return None;
            }
            let (choice_index, retval, errno) = resolve_action(entry, &mut state.rng);
            return Some(Decision { entry_index, choice_index, retval, errno, call_number });
        }
        None
    }

    /// Applies a decision: argument rewrites, errno, side effects,
    /// pass-through and the injected return value; then logs the injection.
    /// The injector-wide lock is taken only for the log append.
    fn apply(&self, slot_index: usize, decision: Decision, ctx: &mut CallContext<'_>) -> i64 {
        let slot = &self.shared.slots[slot_index];
        let entry = &slot.function.entries[decision.entry_index];
        for modification in &entry.arg_modifications {
            let current = ctx.arg(modification.argument as usize);
            ctx.set_arg(modification.argument as usize, modification.op.apply(current, modification.value));
        }
        if let Some(errno) = decision.errno {
            ctx.set_errno(errno);
        }
        for effect in entry.side_effects_for(decision.choice_index) {
            match effect.kind {
                SideEffectKind::Tls => {
                    ctx.state().set_tls_sym(effect.module, effect.offset, effect.value);
                    // errno lives in TLS; reflect the canonical value too so
                    // programs that read errno through the process state see
                    // the injected error.
                    ctx.set_errno(effect.value);
                }
                SideEffectKind::Global => {
                    ctx.state().set_global_sym(effect.module, effect.offset, effect.value);
                }
                SideEffectKind::OutputArg => {
                    // The simulated process has no byte-addressable memory, so
                    // output-argument writes are recorded in the log only.
                }
            }
        }

        let stack = ctx.stack().to_vec();
        let passthrough_result = if entry.call_original { ctx.call_next().ok() } else { None };

        self.shared.log.lock().push(RawInjection {
            slot: slot_index as u32,
            entry: decision.entry_index as u32,
            choice: decision.choice_index.map(|c| c as u32),
            call_number: decision.call_number,
            retval: if entry.call_original { None } else { decision.retval },
            errno: decision.errno,
            call_original: entry.call_original,
            stack,
        });

        if entry.call_original {
            // Pass-through entries (argument modification, overhead runs)
            // return whatever the original returned.
            if let Some(result) = passthrough_result {
                self.record_observed(slot_index, result);
            }
            passthrough_result.unwrap_or_else(|| decision.retval.unwrap_or(0))
        } else {
            decision.retval.unwrap_or(0)
        }
    }
}

impl std::fmt::Debug for Injector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("functions", &self.shared.slots.len())
            .field("entries", &self.shared.slots.iter().map(|slot| slot.function.entries.len()).sum::<usize>())
            .field("seed", &self.shared.seed)
            .finish()
    }
}

fn trigger_matches(entry: &CompiledEntry, call_number: u64, caller_stack: &[Symbol], rng: &mut StdRng) -> bool {
    if let Some(n) = entry.inject_at_call {
        if n != call_number {
            return false;
        }
    }
    if let Some(p) = entry.probability {
        if !rng.gen_bool(p.clamp(0.0, 1.0)) {
            return false;
        }
    }
    // Frame i of the trigger must equal the i-th innermost caller frame —
    // compared by symbol id, in place.
    for (i, &frame) in entry.stack_trace.iter().enumerate() {
        match caller_stack.len().checked_sub(1 + i).map(|index| caller_stack[index]) {
            Some(actual) if actual == frame => {}
            _ => return false,
        }
    }
    true
}

fn resolve_action(entry: &CompiledEntry, rng: &mut StdRng) -> (Option<usize>, Option<i64>, Option<i64>) {
    if entry.random_choices.is_empty() {
        return (None, entry.retval, entry.errno);
    }
    let index = rng.gen_range(0..entry.random_choices.len());
    let choice = &entry.random_choices[index];
    let errno = choice
        .side_effects
        .iter()
        .find(|s| s.kind == SideEffectKind::Tls)
        .map(|s| s.value)
        .or(entry.errno);
    (Some(index), Some(choice.retval), errno)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_profile::{ErrorReturn, SideEffect};
    use lfi_runtime::Process;
    use lfi_scenario::{ArgOp, FaultAction, Plan, PlanEntry, Trigger};

    fn libc() -> NativeLibrary {
        NativeLibrary::builder("libc.so.6")
            .function("read", |ctx| ctx.arg(2))
            .function("write", |ctx| ctx.arg(2))
            .constant("close", 0)
            .build()
    }

    fn process_with(plan: Plan) -> (Process, Injector) {
        let mut process = Process::new();
        process.load(libc());
        let injector = Injector::new(&plan);
        process.preload(injector.synthesize_interceptor());
        (process, injector)
    }

    #[test]
    fn call_count_trigger_fires_exactly_once() {
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(3),
            action: FaultAction::return_value(-1).with_errno(9),
        });
        let (mut process, injector) = process_with(plan);
        let results: Vec<i64> = (0..5).map(|_| process.call("read", &[3, 0, 64]).unwrap()).collect();
        assert_eq!(results, vec![64, 64, -1, 64, 64]);
        assert_eq!(process.state().errno(), 9);
        let log = injector.log();
        assert_eq!(log.injection_count(), 1);
        assert_eq!(log.injections[0].call_number, 3);
        assert_eq!(log.intercepted_calls, 5);
    }

    #[test]
    fn uninjected_calls_pass_through_untouched() {
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(100),
            action: FaultAction::return_value(-1),
        });
        let (mut process, injector) = process_with(plan);
        for _ in 0..10 {
            assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
        }
        // Functions not named in the plan are not intercepted at all.
        assert_eq!(process.call("close", &[5]).unwrap(), 0);
        assert_eq!(injector.log().injection_count(), 0);
        assert_eq!(injector.log().intercepted_calls, 10);
    }

    #[test]
    fn stack_trace_trigger_only_fires_in_matching_context() {
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(1).frame("refresh_files"),
            action: FaultAction::return_value(0).with_errno(9),
        });
        let (mut process, injector) = process_with(plan.clone());
        // Wrong context: no injection.
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
        drop(injector);

        let (mut process, injector) = process_with(plan);
        process.push_frame("refresh_files");
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 0);
        process.pop_frame();
        assert_eq!(injector.log().injection_count(), 1);
        assert_eq!(injector.log().injections[0].stack, vec!["refresh_files", "read"]);
    }

    #[test]
    fn argument_modification_with_passthrough() {
        // The paper's third example: 20th call to read, subtract 10 from the
        // byte count, pass the call on.
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(2),
            action: FaultAction::default().passthrough().modify_arg(2, ArgOp::Sub, 10),
        });
        let (mut process, injector) = process_with(plan);
        assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), 64);
        assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), 54);
        assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), 64);
        let log = injector.log();
        assert_eq!(log.injection_count(), 1);
        assert!(log.injections[0].call_original);
    }

    #[test]
    fn observed_returns_refine_an_incomplete_profile() {
        // The "original" read occasionally fails with -11 (EWOULDBLOCK-style)
        // — a value the static profile below does not list.  A monitoring
        // plan (a trigger that never fires) lets the controller watch the
        // pass-through traffic and report the missing value.
        let flaky = NativeLibrary::builder("libc.so.6")
            .function("read", |ctx| if ctx.arg(0) == 13 { -11 } else { ctx.arg(2) })
            .build();
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(u64::MAX),
            action: FaultAction::return_value(-1),
        });
        let mut process = Process::new();
        process.load(flaky);
        let injector = Injector::new(&plan);
        process.preload(injector.synthesize_interceptor());

        for fd in 0..20 {
            let _ = process.call("read", &[fd, 0, 64]).unwrap();
        }

        let observed = injector.observed_returns();
        assert_eq!(observed["read"][&-11], 1);
        assert_eq!(observed["read"][&64], 19);

        // A static profile that only knows about -1 gets refined with -11.
        let mut profile = lfi_profile::FaultProfile::new("libc.so.6");
        profile.push_function(lfi_profile::FunctionProfile {
            name: "read".into(),
            error_returns: vec![ErrorReturn::bare(-1)],
        });
        let findings = injector.refinement_findings(&[profile.clone()]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0], RefinementFinding { function: "read".into(), value: -11, occurrences: 1 });

        // Values the profile already lists, and non-negative values, are not
        // reported.
        profile.functions[0].error_returns.push(ErrorReturn::bare(-11));
        assert!(injector.refinement_findings(&[profile]).is_empty());

        // reset() forgets the observations.
        injector.reset();
        assert!(injector.observed_returns().is_empty());
    }

    #[test]
    fn passthrough_injections_also_feed_the_observation_record() {
        // A pass-through entry (argument modification) still lets the
        // original's return value be observed.
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction::default().passthrough().modify_arg(2, ArgOp::Sub, 10),
        });
        let (mut process, injector) = process_with(plan);
        assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), 54);
        let observed = injector.observed_returns();
        assert_eq!(observed["read"][&54], 1);
    }

    #[test]
    fn indirect_calls_are_resolved_at_runtime_and_injected_per_callee() {
        // §3.1: "the LFI controller could dynamically resolve indirect calls
        // at runtime and inject the return codes corresponding to the
        // function being called".  The program calls `read` and `write`
        // exclusively through function pointers; each gets the error code its
        // own plan entry specifies.
        let plan = Plan::new()
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(1),
                action: FaultAction::return_value(-1).with_errno(9),
            })
            .entry(PlanEntry {
                function: "write".into(),
                trigger: Trigger::on_call(1),
                action: FaultAction::return_value(-7).with_errno(28),
            });
        let (mut process, injector) = process_with(plan);
        let read_ptr = process.fnptr("read").unwrap();
        let write_ptr = process.fnptr("write").unwrap();

        assert_eq!(process.call_ptr(read_ptr, &[3, 0, 64]).unwrap(), -1);
        assert_eq!(process.state().errno(), 9);
        assert_eq!(process.call_ptr(write_ptr, &[3, 0, 64]).unwrap(), -7);
        assert_eq!(process.state().errno(), 28);
        // Subsequent indirect calls pass through (the triggers already fired).
        assert_eq!(process.call_ptr(read_ptr, &[3, 0, 64]).unwrap(), 64);

        let log = injector.log();
        assert_eq!(log.injection_count(), 2);
        let functions: Vec<&str> = log.injections.iter().map(|r| r.function.as_str()).collect();
        assert_eq!(functions, vec!["read", "write"]);
    }

    #[test]
    fn direct_and_indirect_calls_share_one_call_counter() {
        // A trigger on the 3rd call fires regardless of whether the calls
        // arrived directly or through a pointer.
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(3),
            action: FaultAction::return_value(-1),
        });
        let (mut process, injector) = process_with(plan);
        let ptr = process.fnptr("read").unwrap();
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
        assert_eq!(process.call_ptr(ptr, &[3, 0, 8]).unwrap(), 8);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), -1);
        assert_eq!(injector.log().injections[0].call_number, 3);
    }

    #[test]
    fn probability_trigger_injects_roughly_the_right_fraction() {
        let plan = Plan::new().with_seed(7).entry(PlanEntry {
            function: "write".into(),
            trigger: Trigger::with_probability(0.3),
            action: FaultAction {
                random_choices: vec![ErrorReturn::bare(-1), ErrorReturn::bare(-2)],
                ..FaultAction::default()
            },
        });
        let (mut process, injector) = process_with(plan);
        let mut failures = 0;
        for _ in 0..1000 {
            if process.call("write", &[1, 0, 16]).unwrap() < 0 {
                failures += 1;
            }
        }
        assert!((200..400).contains(&failures), "injected {failures} of 1000");
        assert_eq!(injector.log().injection_count(), failures);
        // Both choices get picked over time.
        let distinct: std::collections::HashSet<i64> =
            injector.log().injections.iter().filter_map(|r| r.retval).collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn runs_are_reproducible_with_the_same_seed() {
        let plan = Plan::new().with_seed(11).entry(PlanEntry {
            function: "write".into(),
            trigger: Trigger::with_probability(0.5),
            action: FaultAction { random_choices: vec![ErrorReturn::bare(-1)], ..FaultAction::default() },
        });
        let run = |plan: Plan| {
            let (mut process, injector) = process_with(plan);
            let results: Vec<i64> = (0..50).map(|_| process.call("write", &[1, 0, 4]).unwrap()).collect();
            (results, injector.log().injection_count())
        };
        assert_eq!(run(plan.clone()), run(plan));
    }

    #[test]
    fn tls_side_effects_reach_process_state_and_errno() {
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction {
                retval: Some(-1),
                side_effects: vec![SideEffect::tls("libc.so.6", 0x12fff4, 5)],
                ..FaultAction::default()
            },
        });
        let (mut process, _injector) = process_with(plan);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), -1);
        assert_eq!(process.state().tls("libc.so.6", 0x12fff4), 5);
        assert_eq!(process.state().errno(), 5);
    }

    #[test]
    fn replay_plan_reproduces_a_random_run_exactly() {
        let plan = Plan::new().with_seed(3).entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::with_probability(0.2),
            action: FaultAction {
                random_choices: vec![ErrorReturn::bare(-1), ErrorReturn::bare(-7)],
                ..FaultAction::default()
            },
        });
        let (mut process, injector) = process_with(plan);
        let original: Vec<i64> = (0..40).map(|_| process.call("read", &[3, 0, 32]).unwrap()).collect();
        let replay = injector.replay_plan();

        let (mut process2, injector2) = process_with(replay);
        let replayed: Vec<i64> = (0..40).map(|_| process2.call("read", &[3, 0, 32]).unwrap()).collect();
        assert_eq!(original, replayed);
        assert_eq!(injector.log().injection_count(), injector2.log().injection_count());
    }

    #[test]
    fn interceptors_for_multiple_libraries_coexist() {
        // §6.4: libc, libapr and libaprutil interceptors active at once.
        let apr = NativeLibrary::builder("libapr.so").function("apr_read", |ctx| ctx.arg(1)).build();
        let mut process = Process::new();
        process.load(libc());
        process.load(apr);
        let libc_plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction::return_value(-1),
        });
        let apr_plan = Plan::new().entry(PlanEntry {
            function: "apr_read".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction::return_value(-2),
        });
        let libc_injector = Injector::new(&libc_plan);
        let apr_injector = Injector::new(&apr_plan);
        process.preload(libc_injector.synthesize_interceptor_named("lfi_libc.so"));
        process.preload(apr_injector.synthesize_interceptor_named("lfi_apr.so"));
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), -1);
        assert_eq!(process.call("apr_read", &[0, 16]).unwrap(), -2);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
        assert_eq!(libc_injector.log().injection_count(), 1);
        assert_eq!(apr_injector.log().injection_count(), 1);
    }

    #[test]
    fn reset_clears_counters_and_log() {
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction::return_value(-1),
        });
        let (mut process, injector) = process_with(plan);
        assert_eq!(process.call("read", &[0, 0, 8]).unwrap(), -1);
        injector.reset();
        assert_eq!(injector.log().injection_count(), 0);
        // After the reset the first call counts as call #1 again, so the
        // trigger fires again.
        assert_eq!(process.call("read", &[0, 0, 8]).unwrap(), -1);
    }

    #[test]
    fn interception_without_an_original_definition_degrades_to_success() {
        let plan = Plan::new().entry(PlanEntry {
            function: "only_in_profile".into(),
            trigger: Trigger::on_call(2),
            action: FaultAction::return_value(-1),
        });
        let mut process = Process::new();
        let injector = Injector::new(&plan);
        process.preload(injector.synthesize_interceptor());
        assert_eq!(process.call("only_in_profile", &[]).unwrap(), 0);
        assert_eq!(process.call("only_in_profile", &[]).unwrap(), -1);
    }

    #[test]
    fn plan_entries_for_unknown_functions_pass_through_for_the_rest() {
        // A plan that names a function no library defines does not disturb
        // injection (or pass-through) on the functions that do exist.
        let plan = Plan::new()
            .entry(PlanEntry {
                function: "no_such_function_anywhere".into(),
                trigger: Trigger::on_call(1),
                action: FaultAction::return_value(-1),
            })
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(2),
                action: FaultAction::return_value(-9),
            });
        let (mut process, injector) = process_with(plan);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), -9);
        assert_eq!(injector.log().injection_count(), 1);
    }

    #[test]
    fn specialized_and_general_stubs_are_observably_identical() {
        // The same deterministic fault, expressed two ways: alone (compiles
        // to the specialized stub) and alongside a never-firing second entry
        // (defeats specialization, runs the general entry walk).  Results,
        // errno, logs and observed returns must not differ.
        let fault = PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(3),
            action: FaultAction::return_value(-1).with_errno(9),
        };
        let never = PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(u64::MAX),
            action: FaultAction::return_value(-2),
        };
        let specialized = Plan::new().entry(fault.clone());
        let general = Plan::new().entry(fault).entry(never);
        assert_ne!(
            specialized.compile().functions[0].specialization(),
            general.compile().functions[0].specialization(),
            "the two plans must exercise different stub shapes"
        );

        let drive = |plan: Plan| {
            let (mut process, injector) = process_with(plan);
            let results: Vec<i64> = (0..6).map(|_| process.call("read", &[3, 0, 64]).unwrap()).collect();
            (results, process.state().errno(), injector.log(), injector.observed_returns())
        };
        let (results_s, errno_s, log_s, observed_s) = drive(specialized);
        let (results_g, errno_g, log_g, observed_g) = drive(general);
        assert_eq!(results_s, results_g);
        assert_eq!(errno_s, errno_g);
        assert_eq!(log_s.injections, log_g.injections);
        assert_eq!(log_s.intercepted_calls, log_g.intercepted_calls);
        assert_eq!(log_s.calls_per_function, log_g.calls_per_function);
        assert_eq!(observed_s, observed_g);
    }

    #[test]
    fn specialized_stub_honours_the_shared_budget_and_reset() {
        // One token across two deterministic single-entry plans: only the
        // first trigger to fire injects; the other call passes through.
        let budget = Arc::new(AtomicUsize::new(1));
        let plan_for = |function: &str| {
            Plan::new().entry(PlanEntry {
                function: function.into(),
                trigger: Trigger::on_call(1),
                action: FaultAction::return_value(-1).with_errno(9),
            })
        };
        let read_injector = Injector::with_budget(&plan_for("read"), Some(Arc::clone(&budget)));
        let write_injector = Injector::with_budget(&plan_for("write"), Some(Arc::clone(&budget)));
        let mut process = Process::new();
        process.load(libc());
        process.preload(read_injector.synthesize_interceptor_named("lfi_read.so"));
        process.preload(write_injector.synthesize_interceptor_named("lfi_write.so"));
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), -1);
        assert_eq!(process.call("write", &[1, 0, 8]).unwrap(), 8, "budget spent: pass through");
        assert_eq!(read_injector.log().injection_count(), 1);
        assert_eq!(write_injector.log().injection_count(), 0);
        // The pass-through miss still fed the observation record.
        assert_eq!(write_injector.observed_returns()["write"][&8], 1);

        // reset() rewinds the specialized stub's atomic counter too.
        read_injector.reset();
        assert_eq!(read_injector.log().intercepted_calls, 0);
        budget.store(1, Ordering::SeqCst);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), -1, "ordinal 1 fires again after reset");
    }

    #[test]
    fn sharded_state_keeps_per_function_counters_independent_under_threads() {
        // Two functions hammered from two threads: each slot counts its own
        // calls, and the call-count triggers fire at exactly the right
        // ordinal on both, no matter how the threads interleave.
        let plan = Plan::new()
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(500),
                action: FaultAction::return_value(-1),
            })
            .entry(PlanEntry {
                function: "write".into(),
                trigger: Trigger::on_call(300),
                action: FaultAction::return_value(-2),
            });
        let injector = Injector::new(&plan);
        let interceptor = injector.synthesize_interceptor();
        let mut template = Process::new();
        template.load(libc());
        template.preload(interceptor);

        std::thread::scope(|scope| {
            let mut read_process = template.clone();
            let mut write_process = template.clone();
            scope.spawn(move || {
                for _ in 0..1000 {
                    let _ = read_process.call("read", &[3, 0, 8]);
                }
            });
            scope.spawn(move || {
                for _ in 0..1000 {
                    let _ = write_process.call("write", &[1, 0, 8]);
                }
            });
        });

        let log = injector.log();
        assert_eq!(log.intercepted_calls, 2000);
        assert_eq!(log.injection_count(), 2);
        let mut fired: Vec<(&str, u64)> = log.injections.iter().map(|r| (r.function.as_str(), r.call_number)).collect();
        fired.sort_unstable();
        assert_eq!(fired, vec![("read", 500), ("write", 300)]);
    }
}
