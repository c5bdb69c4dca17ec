//! `Plan::compile` against the quadratic grouping it replaced.
//!
//! The reference below is the original compiler: it finds each entry's slot
//! with a linear scan over the slots built so far.  Slot order and the entry
//! order within a slot seed the controller's per-slot random streams, so the
//! linear-time compiler must reproduce the reference exactly, not just
//! group the same entries.

use lfi_controller::Injector;
use lfi_intern::Symbol;
use lfi_profile::{ErrorReturn, SideEffect};
use lfi_scenario::{
    ArgModification, ArgOp, CompiledChoice, CompiledEntry, CompiledFunction, CompiledPlan, CompiledSideEffect,
    FaultAction, Plan, PlanEntry, Trigger,
};
use proptest::prelude::*;

fn compile_side_effect(effect: &SideEffect) -> CompiledSideEffect {
    CompiledSideEffect {
        kind: effect.kind,
        module: Symbol::intern(&effect.module),
        offset: effect.offset,
        value: effect.value,
    }
}

/// The O(entries × functions) compiler `Plan::compile` used to be.
fn compile_quadratic(plan: &Plan) -> CompiledPlan {
    let mut functions: Vec<CompiledFunction> = Vec::new();
    for (plan_index, entry) in plan.entries.iter().enumerate() {
        let symbol = Symbol::intern(&entry.function);
        let compiled = CompiledEntry {
            plan_index,
            inject_at_call: entry.trigger.inject_at_call,
            probability: entry.trigger.probability,
            stack_trace: entry.trigger.stack_trace.iter().map(|frame| Symbol::intern(frame)).collect(),
            retval: entry.action.retval,
            errno: entry.action.errno,
            side_effects: entry.action.side_effects.iter().map(compile_side_effect).collect(),
            call_original: entry.action.call_original,
            arg_modifications: entry.action.arg_modifications.clone(),
            random_choices: entry
                .action
                .random_choices
                .iter()
                .map(|choice| CompiledChoice {
                    retval: choice.retval,
                    side_effects: choice.side_effects.iter().map(compile_side_effect).collect(),
                })
                .collect(),
        };
        let stack_sensitive = !compiled.stack_trace.is_empty();
        match functions.iter_mut().find(|f| f.symbol == symbol) {
            Some(slot) => {
                slot.stack_sensitive |= stack_sensitive;
                slot.entries.push(compiled);
            }
            None => functions.push(CompiledFunction { symbol, stack_sensitive, entries: vec![compiled] }),
        }
    }
    CompiledPlan { seed: plan.seed, functions }
}

fn arb_side_effect() -> impl Strategy<Value = SideEffect> {
    (0u32..3, "lib[a-c]", 0u32..0x100, -64i64..64).prop_map(|(kind, module, offset, value)| match kind {
        0 => SideEffect::tls(module, offset, value),
        1 => SideEffect::global(module, offset, value),
        _ => SideEffect::output_arg(module, offset % 8, value),
    })
}

fn arb_trigger() -> impl Strategy<Value = Trigger> {
    (
        proptest::option::of(1u64..20),
        proptest::option::of(0.0f64..1.0),
        proptest::collection::vec("caller_[a-c]", 0..3),
    )
        .prop_map(|(inject_at_call, probability, stack_trace)| Trigger {
            inject_at_call,
            probability,
            stack_trace,
        })
}

fn arb_action() -> impl Strategy<Value = FaultAction> {
    (
        proptest::option::of(-64i64..64),
        proptest::option::of(1i64..64),
        proptest::collection::vec(arb_side_effect(), 0..3),
        any::<bool>(),
        proptest::collection::vec((0u8..6, -32i64..32), 0..2),
        proptest::collection::vec((-64i64..0, proptest::collection::vec(arb_side_effect(), 0..2)), 0..3),
    )
        .prop_map(|(retval, errno, side_effects, call_original, mods, choices)| FaultAction {
            retval,
            errno,
            side_effects,
            call_original,
            arg_modifications: mods
                .into_iter()
                .map(|(argument, value)| ArgModification { argument, op: ArgOp::Add, value })
                .collect(),
            random_choices: choices
                .into_iter()
                .map(|(retval, side_effects)| ErrorReturn { retval, side_effects })
                .collect(),
        })
}

/// Plans over a small function vocabulary, so functions repeat and their
/// entries interleave with other functions' entries.
fn arb_plan() -> impl Strategy<Value = Plan> {
    let entry = ("[a-h]", arb_trigger(), arb_action()).prop_map(|(function, trigger, action)| PlanEntry {
        function: format!("fn_{function}"),
        trigger,
        action,
    });
    (proptest::collection::vec(entry, 0..48), proptest::option::of(any::<u64>()))
        .prop_map(|(entries, seed)| Plan { entries, seed })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The linear-time compiler yields exactly the reference's slots (same
    /// order), entries (same order and plan indices) and resolved fields,
    /// and the injector built from the plan intercepts exactly the plan's
    /// functions.
    #[test]
    fn compile_matches_the_quadratic_reference(plan in arb_plan()) {
        prop_assert_eq!(plan.compile(), compile_quadratic(&plan));
        let intercepted: Vec<String> = plan.intercepted_functions().into_iter().map(str::to_owned).collect();
        prop_assert_eq!(Injector::with_budget(&plan, None).intercepted_functions(), intercepted);
    }
}
