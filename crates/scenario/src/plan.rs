use std::fmt;

use lfi_profile::xml::{self, XmlElement};
use lfi_profile::{ErrorReturn, SideEffect, SideEffectKind};

use crate::errno::{errno_name, parse_errno};
use crate::ScenarioError;

/// Operation applied by an argument modification (`<modify op="..">`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgOp {
    /// Replace the argument with the value.
    Set,
    /// Add the value to the argument.
    Add,
    /// Subtract the value from the argument.
    Sub,
    /// Bitwise-and the argument with the value.
    And,
    /// Bitwise-or the argument with the value.
    Or,
}

impl ArgOp {
    /// Applies the operation to an argument value.
    pub fn apply(self, argument: i64, value: i64) -> i64 {
        match self {
            ArgOp::Set => value,
            ArgOp::Add => argument.wrapping_add(value),
            ArgOp::Sub => argument.wrapping_sub(value),
            ArgOp::And => argument & value,
            ArgOp::Or => argument | value,
        }
    }

    fn parse(text: &str) -> Option<Self> {
        match text {
            "set" => Some(ArgOp::Set),
            "add" => Some(ArgOp::Add),
            "sub" => Some(ArgOp::Sub),
            "and" => Some(ArgOp::And),
            "or" => Some(ArgOp::Or),
            _ => None,
        }
    }
}

impl fmt::Display for ArgOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArgOp::Set => "set",
            ArgOp::Add => "add",
            ArgOp::Sub => "sub",
            ArgOp::And => "and",
            ArgOp::Or => "or",
        };
        f.write_str(s)
    }
}

/// One `<modify argument=".." op=".." value=".." />` element: rewrite an
/// argument before (optionally) passing the call through to the original
/// function, like the paper's "subtract 10 from the byte count" example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgModification {
    /// Index of the argument to rewrite (0-based).
    pub argument: u8,
    /// Operation applied.
    pub op: ArgOp,
    /// Operand of the operation.
    pub value: i64,
}

/// The condition part of a `<trigger, fault>` tuple.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trigger {
    /// Fire on the n-th call to the function (1-based), if set.
    pub inject_at_call: Option<u64>,
    /// Fire independently on each call with this probability, if set.
    pub probability: Option<f64>,
    /// Partial stack trace that must match the innermost frames of the
    /// runtime backtrace for the trigger to fire.
    pub stack_trace: Vec<String>,
}

impl Trigger {
    /// A trigger that fires on the n-th call.
    pub fn on_call(n: u64) -> Self {
        Self { inject_at_call: Some(n), ..Self::default() }
    }

    /// A trigger that fires with the given probability on every call.
    pub fn with_probability(p: f64) -> Self {
        Self { probability: Some(p), ..Self::default() }
    }

    /// Adds a required stack-trace frame (outer frames appended last).
    pub fn frame(mut self, frame: impl Into<String>) -> Self {
        self.stack_trace.push(frame.into());
        self
    }
}

/// The fault part of a `<trigger, fault>` tuple.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultAction {
    /// Return value to inject (`None` leaves the return value untouched,
    /// useful for pure argument-modification entries).
    pub retval: Option<i64>,
    /// errno value to set alongside the return value.
    pub errno: Option<i64>,
    /// Side effects (from the fault profile) to apply.
    pub side_effects: Vec<SideEffect>,
    /// Whether the original function is still invoked.
    pub call_original: bool,
    /// Argument rewrites applied before a passed-through call.
    pub arg_modifications: Vec<ArgModification>,
    /// When non-empty, the injector picks one of these error returns at
    /// random each time the trigger fires (used by random scenarios).
    pub random_choices: Vec<ErrorReturn>,
}

impl FaultAction {
    /// An action that injects a fixed return value.
    pub fn return_value(retval: i64) -> Self {
        Self { retval: Some(retval), ..Self::default() }
    }

    /// Sets the errno injected alongside the return value.
    pub fn with_errno(mut self, errno: i64) -> Self {
        self.errno = Some(errno);
        self
    }

    /// Passes the call through to the original function after injection.
    pub fn passthrough(mut self) -> Self {
        self.call_original = true;
        self
    }

    /// Adds an argument modification.
    pub fn modify_arg(mut self, argument: u8, op: ArgOp, value: i64) -> Self {
        self.arg_modifications.push(ArgModification { argument, op, value });
        self
    }
}

/// One `<function …>` entry in a plan: a trigger paired with a fault.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    /// Name of the intercepted function.
    pub function: String,
    /// When to inject.
    pub trigger: Trigger,
    /// What to inject.
    pub action: FaultAction,
}

/// A fault injection scenario ("faultload", §4): a set of `<trigger, fault>`
/// tuples plus an optional seed for random triggers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// The plan entries, evaluated in order on every intercepted call.
    pub entries: Vec<PlanEntry>,
    /// Seed for the controller's random number generator (random triggers and
    /// random choice pools); `None` lets the controller pick.
    pub seed: Option<u64>,
}

impl Plan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry (builder style).
    pub fn entry(mut self, entry: PlanEntry) -> Self {
        self.entries.push(entry);
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Number of entries (the "number of triggers" axis of Tables 3 and 4).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the plan has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries that intercept a given function.
    pub fn entries_for<'a>(&'a self, function: &'a str) -> impl Iterator<Item = &'a PlanEntry> + 'a {
        self.entries.iter().filter(move |e| e.function == function)
    }

    /// The set of function names this plan intercepts.
    pub fn intercepted_functions(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.entries.iter().map(|e| e.function.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Serializes the plan to the XML dialect of §4.
    pub fn to_xml(&self) -> String {
        let mut root = XmlElement::new("plan");
        if let Some(seed) = self.seed {
            root = root.attr("seed", seed);
        }
        for entry in &self.entries {
            let mut fe = XmlElement::new("function").attr("name", &entry.function);
            if let Some(n) = entry.trigger.inject_at_call {
                fe = fe.attr("inject", n);
            }
            if let Some(p) = entry.trigger.probability {
                fe = fe.attr("probability", p);
            }
            if let Some(retval) = entry.action.retval {
                fe = fe.attr("retval", retval);
            }
            if let Some(errno) = entry.action.errno {
                match errno_name(errno) {
                    Some(name) => fe = fe.attr("errno", name),
                    None => fe = fe.attr("errno", errno),
                }
            }
            fe = fe.attr("calloriginal", entry.action.call_original);
            if !entry.trigger.stack_trace.is_empty() {
                let mut st = XmlElement::new("stacktrace");
                for frame in &entry.trigger.stack_trace {
                    st = st.child(XmlElement::new("frame").text(frame));
                }
                fe = fe.child(st);
            }
            for modification in &entry.action.arg_modifications {
                fe = fe.child(
                    XmlElement::new("modify")
                        .attr("argument", modification.argument)
                        .attr("op", modification.op)
                        .attr("value", modification.value),
                );
            }
            for effect in &entry.action.side_effects {
                fe = fe.child(side_effect_element(effect));
            }
            for choice in &entry.action.random_choices {
                let mut ce = XmlElement::new("choice").attr("retval", choice.retval);
                for effect in &choice.side_effects {
                    ce = ce.child(side_effect_element(effect));
                }
                fe = fe.child(ce);
            }
            root = root.child(fe);
        }
        root.to_xml_string()
    }

    /// Parses a plan from its XML form.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the document is not well-formed XML or
    /// does not follow the plan schema.
    pub fn from_xml(text: &str) -> Result<Plan, ScenarioError> {
        let root = xml::parse(text)?;
        if root.name != "plan" {
            return Err(ScenarioError::schema(format!("expected <plan>, found <{}>", root.name)));
        }
        let seed = match root.attribute("seed") {
            Some(text) => Some(text.parse::<u64>().map_err(|_| ScenarioError::invalid_number("seed", text))?),
            None => None,
        };
        let mut entries = Vec::new();
        for fe in root.children_named("function") {
            let function = fe
                .attribute("name")
                .ok_or_else(|| ScenarioError::schema("<function> missing name attribute"))?
                .to_owned();
            let mut trigger = Trigger::default();
            if let Some(text) = fe.attribute("inject") {
                trigger.inject_at_call =
                    Some(text.parse::<u64>().map_err(|_| ScenarioError::invalid_number("inject", text))?);
            }
            if let Some(text) = fe.attribute("probability") {
                trigger.probability =
                    Some(text.parse::<f64>().map_err(|_| ScenarioError::invalid_number("probability", text))?);
            }
            if let Some(st) = fe.first_child("stacktrace") {
                for frame in st.children_named("frame") {
                    trigger.stack_trace.push(frame.text_content());
                }
            }
            let mut action = FaultAction::default();
            if let Some(text) = fe.attribute("retval") {
                action.retval = Some(text.parse::<i64>().map_err(|_| ScenarioError::invalid_number("retval", text))?);
            }
            if let Some(text) = fe.attribute("errno") {
                action.errno = Some(parse_errno(text).ok_or_else(|| ScenarioError::invalid_number("errno", text))?);
            }
            action.call_original = matches!(fe.attribute("calloriginal"), Some("true") | Some("1"));
            for me in fe.children_named("modify") {
                let argument = parse_attr_u8(me, "argument")?;
                let op_text =
                    me.attribute("op").ok_or_else(|| ScenarioError::schema("<modify> missing op attribute"))?;
                let op = ArgOp::parse(op_text)
                    .ok_or_else(|| ScenarioError::schema(format!("unknown modify op {op_text:?}")))?;
                let value_text = me
                    .attribute("value")
                    .ok_or_else(|| ScenarioError::schema("<modify> missing value attribute"))?;
                let value = value_text
                    .parse::<i64>()
                    .map_err(|_| ScenarioError::invalid_number("value", value_text))?;
                action.arg_modifications.push(ArgModification { argument, op, value });
            }
            for se in fe.children_named("side-effect") {
                action.side_effects.push(parse_side_effect(se)?);
            }
            for ce in fe.children_named("choice") {
                let retval_text = ce
                    .attribute("retval")
                    .ok_or_else(|| ScenarioError::schema("<choice> missing retval attribute"))?;
                let retval = retval_text
                    .parse::<i64>()
                    .map_err(|_| ScenarioError::invalid_number("retval", retval_text))?;
                let mut side_effects = Vec::new();
                for se in ce.children_named("side-effect") {
                    side_effects.push(parse_side_effect(se)?);
                }
                action.random_choices.push(ErrorReturn { retval, side_effects });
            }
            entries.push(PlanEntry { function, trigger, action });
        }
        Ok(Plan { entries, seed })
    }
}

fn side_effect_element(effect: &SideEffect) -> XmlElement {
    XmlElement::new("side-effect")
        .attr("type", effect.kind)
        .attr("module", &effect.module)
        .attr("offset", format!("{:X}", effect.offset))
        .text(effect.value.to_string())
}

fn parse_side_effect(se: &XmlElement) -> Result<SideEffect, ScenarioError> {
    let kind = match se.attribute("type") {
        Some("TLS") => SideEffectKind::Tls,
        Some("global") => SideEffectKind::Global,
        Some("argument") => SideEffectKind::OutputArg,
        other => return Err(ScenarioError::schema(format!("unknown side-effect type {other:?}"))),
    };
    let module = se.attribute("module").unwrap_or("").to_owned();
    let offset_text = se.attribute("offset").unwrap_or("0");
    let offset =
        u32::from_str_radix(offset_text, 16).map_err(|_| ScenarioError::invalid_number("offset", offset_text))?;
    let value_text = se.text_content();
    let value = value_text
        .parse::<i64>()
        .map_err(|_| ScenarioError::invalid_number("side-effect value", &value_text))?;
    Ok(SideEffect { kind, module, offset, value })
}

fn parse_attr_u8(element: &XmlElement, name: &str) -> Result<u8, ScenarioError> {
    let text = element
        .attribute(name)
        .ok_or_else(|| ScenarioError::schema(format!("<{}> missing {name} attribute", element.name)))?;
    text.parse::<u8>().map_err(|_| ScenarioError::invalid_number(name, text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_plan() -> Plan {
        Plan::new()
            .entry(PlanEntry {
                function: "readdir64".into(),
                trigger: Trigger::on_call(5),
                action: FaultAction::return_value(0).with_errno(9),
            })
            .entry(PlanEntry {
                function: "readdir".into(),
                trigger: Trigger::on_call(5).frame("0xb824490").frame("refresh_files"),
                action: FaultAction::return_value(0).with_errno(9),
            })
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(20),
                action: FaultAction::default().passthrough().modify_arg(3, ArgOp::Sub, 10),
            })
    }

    #[test]
    fn paper_example_round_trips() {
        let plan = paper_plan();
        let xml = plan.to_xml();
        assert!(xml.contains("errno=\"EBADF\""));
        assert!(xml.contains("calloriginal=\"false\""));
        assert!(xml.contains("<frame>refresh_files</frame>"));
        assert!(xml.contains("op=\"sub\""));
        let parsed = Plan::from_xml(&xml).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn paper_snippet_parses_directly() {
        let xml = r#"
        <plan>
          <function name="readdir64" inject="5" retval="0" errno="EBADF" calloriginal="false" />
          <function name="readdir" inject="5" retval="0" errno="EBADF" calloriginal="false">
            <stacktrace>
              <frame>0xb824490</frame>
              <frame>refresh_files</frame>
            </stacktrace>
          </function>
          <function name="read" inject="20" calloriginal="true">
            <modify argument="3" op="sub" value="10" />
          </function>
        </plan>"#;
        let plan = Plan::from_xml(xml).unwrap();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.entries[0].action.errno, Some(9));
        assert_eq!(plan.entries[1].trigger.stack_trace, vec!["0xb824490".to_owned(), "refresh_files".to_owned()]);
        assert!(plan.entries[2].action.call_original);
        assert_eq!(plan.entries[2].action.arg_modifications[0].op, ArgOp::Sub);
        assert_eq!(plan.intercepted_functions(), vec!["read", "readdir", "readdir64"]);
    }

    #[test]
    fn random_choice_pools_round_trip() {
        let plan = Plan::new().with_seed(42).entry(PlanEntry {
            function: "write".into(),
            trigger: Trigger::with_probability(0.1),
            action: FaultAction {
                random_choices: vec![
                    ErrorReturn { retval: -1, side_effects: vec![SideEffect::tls("libc.so.6", 0x12fff4, 4)] },
                    ErrorReturn::bare(-2),
                ],
                ..FaultAction::default()
            },
        });
        let parsed = Plan::from_xml(&plan.to_xml()).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.seed, Some(42));
        assert_eq!(parsed.entries[0].trigger.probability, Some(0.1));
        assert_eq!(parsed.entries[0].action.random_choices.len(), 2);
    }

    #[test]
    fn arg_op_semantics() {
        assert_eq!(ArgOp::Set.apply(7, 3), 3);
        assert_eq!(ArgOp::Add.apply(7, 3), 10);
        assert_eq!(ArgOp::Sub.apply(7, 3), 4);
        assert_eq!(ArgOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(ArgOp::Or.apply(0b1100, 0b1010), 0b1110);
    }

    #[test]
    fn schema_violations_are_reported() {
        assert!(Plan::from_xml("<profile />").is_err());
        assert!(Plan::from_xml("<plan><function /></plan>").is_err());
        assert!(Plan::from_xml("<plan><function name=\"f\" inject=\"x\" /></plan>").is_err());
        assert!(Plan::from_xml("<plan><function name=\"f\" errno=\"EWEIRD\" /></plan>").is_err());
        assert!(Plan::from_xml(
            "<plan><function name=\"f\"><modify argument=\"0\" op=\"frob\" value=\"1\" /></function></plan>"
        )
        .is_err());
        assert!(Plan::from_xml("not xml at all").is_err());
    }

    #[test]
    fn unnamed_errno_values_serialize_numerically() {
        let plan = Plan::new().entry(PlanEntry {
            function: "f".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction::return_value(-1).with_errno(12345),
        });
        let xml = plan.to_xml();
        assert!(xml.contains("errno=\"12345\""));
        assert_eq!(Plan::from_xml(&xml).unwrap(), plan);
    }

    #[test]
    fn entries_for_filters_by_function() {
        let plan = paper_plan();
        assert_eq!(plan.entries_for("readdir").count(), 1);
        assert_eq!(plan.entries_for("missing").count(), 0);
        assert!(!plan.is_empty());
    }
}
