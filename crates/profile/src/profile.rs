use std::collections::BTreeSet;
use std::fmt;

use crate::xml::{self, XmlElement};
use crate::ProfileError;

/// The channel through which an error side effect is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SideEffectKind {
    /// A thread-local-storage variable (e.g. `errno`).
    Tls,
    /// A module-global variable.
    Global,
    /// A value written through a pointer argument (output parameter).
    OutputArg,
}

impl fmt::Display for SideEffectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SideEffectKind::Tls => "TLS",
            SideEffectKind::Global => "global",
            SideEffectKind::OutputArg => "argument",
        };
        f.write_str(s)
    }
}

impl SideEffectKind {
    fn parse(text: &str) -> Option<Self> {
        match text {
            "TLS" => Some(SideEffectKind::Tls),
            "global" => Some(SideEffectKind::Global),
            "argument" => Some(SideEffectKind::OutputArg),
            _ => None,
        }
    }
}

/// One side effect accompanying an error return (§3.2, §3.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SideEffect {
    /// Channel used to expose the error detail.
    pub kind: SideEffectKind,
    /// Module whose data image holds the location (for TLS/global effects).
    pub module: String,
    /// Offset of the location within the module data image; for
    /// [`SideEffectKind::OutputArg`] this is the argument index instead.
    pub offset: u32,
    /// Value written into the location.
    pub value: i64,
}

impl SideEffect {
    /// A TLS side effect (the `errno` pattern).
    pub fn tls(module: impl Into<String>, offset: u32, value: i64) -> Self {
        Self { kind: SideEffectKind::Tls, module: module.into(), offset, value }
    }

    /// A global-variable side effect.
    pub fn global(module: impl Into<String>, offset: u32, value: i64) -> Self {
        Self { kind: SideEffectKind::Global, module: module.into(), offset, value }
    }

    /// An output-argument side effect.
    pub fn output_arg(module: impl Into<String>, arg_index: u32, value: i64) -> Self {
        Self { kind: SideEffectKind::OutputArg, module: module.into(), offset: arg_index, value }
    }
}

/// One possible error return of a function, with its side effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReturn {
    /// The error return value.
    pub retval: i64,
    /// Side effects that accompany this return value (possibly several
    /// alternatives, e.g. the different errno values of `close`).
    pub side_effects: Vec<SideEffect>,
}

impl ErrorReturn {
    /// An error return with no side effects.
    pub fn bare(retval: i64) -> Self {
        Self { retval, side_effects: Vec::new() }
    }

    /// The distinct errno-style TLS values attached to this return.
    pub fn errno_values(&self) -> Vec<i64> {
        let mut values: Vec<i64> = self
            .side_effects
            .iter()
            .filter(|s| s.kind == SideEffectKind::Tls)
            .map(|s| s.value)
            .collect();
        values.sort_unstable();
        values.dedup();
        values
    }
}

/// The fault profile of one exported function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionProfile {
    /// Exported function name.
    pub name: String,
    /// Every error return the profiler found.
    pub error_returns: Vec<ErrorReturn>,
}

impl FunctionProfile {
    /// Creates an empty profile for a function.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), error_returns: Vec::new() }
    }

    /// The set of distinct error return values.
    pub fn error_values(&self) -> BTreeSet<i64> {
        self.error_returns.iter().map(|e| e.retval).collect()
    }

    /// True if the profiler found no injectable errors for this function.
    pub fn is_empty(&self) -> bool {
        self.error_returns.is_empty()
    }

    /// Number of injectable faults: one per (return value, side-effect
    /// alternative) pair, or one per bare return value.
    pub fn fault_count(&self) -> usize {
        self.error_returns.iter().map(|e| e.side_effects.len().max(1)).sum()
    }
}

/// The fault profile of a whole library (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultProfile {
    /// Library file name (e.g. `libc.so.6`).
    pub library: String,
    /// Platform label, informational only.
    pub platform: Option<String>,
    /// Per-function profiles, in the order functions were analyzed.
    pub functions: Vec<FunctionProfile>,
}

impl FaultProfile {
    /// Creates an empty profile for a library.
    pub fn new(library: impl Into<String>) -> Self {
        Self { library: library.into(), platform: None, functions: Vec::new() }
    }

    /// Sets the platform label.
    pub fn with_platform(mut self, platform: impl Into<String>) -> Self {
        self.platform = Some(platform.into());
        self
    }

    /// Adds a function profile.
    pub fn push_function(&mut self, function: FunctionProfile) {
        self.functions.push(function);
    }

    /// Looks up a function profile by name.
    pub fn function(&self, name: &str) -> Option<&FunctionProfile> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Number of profiled functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Total number of injectable faults across all functions.
    pub fn total_faults(&self) -> usize {
        self.functions.iter().map(FunctionProfile::fault_count).sum()
    }

    /// Retains only the named functions — the "testers can alter the
    /// generated profiles" workflow from §2.
    pub fn retain_functions(&mut self, names: &[&str]) {
        self.functions.retain(|f| names.contains(&f.name.as_str()));
    }

    /// Serializes the profile to the XML dialect of §3.3.
    pub fn to_xml(&self) -> String {
        self.to_xml_element().to_xml_string()
    }

    /// Builds the `<profile>` element, for callers that embed profiles in a
    /// larger document (e.g. [`crate::ProfileStore`]).
    pub fn to_xml_element(&self) -> XmlElement {
        let mut root = XmlElement::new("profile").attr("library", &self.library);
        if let Some(platform) = &self.platform {
            root = root.attr("platform", platform);
        }
        for function in &self.functions {
            let mut fe = XmlElement::new("function").attr("name", &function.name);
            for error in &function.error_returns {
                let mut ee = XmlElement::new("error-codes").attr("retval", error.retval);
                for effect in &error.side_effects {
                    let se = XmlElement::new("side-effect")
                        .attr("type", effect.kind)
                        .attr("module", &effect.module)
                        .attr("offset", format!("{:X}", effect.offset))
                        .text(effect.value.to_string());
                    ee = ee.child(se);
                }
                fe = fe.child(ee);
            }
            root = root.child(fe);
        }
        root
    }

    /// Parses a profile from its XML form.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] if the document is not well-formed XML or does
    /// not follow the profile schema.
    pub fn from_xml(text: &str) -> Result<FaultProfile, ProfileError> {
        Self::from_xml_element(&xml::parse(text)?)
    }

    /// Parses a profile from an already-parsed `<profile>` element.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Schema`] or [`ProfileError::InvalidNumber`] if
    /// the element does not follow the profile schema.
    pub fn from_xml_element(root: &XmlElement) -> Result<FaultProfile, ProfileError> {
        if root.name != "profile" {
            return Err(ProfileError::schema(format!("expected <profile>, found <{}>", root.name)));
        }
        let library = root.attribute("library").unwrap_or("").to_owned();
        let platform = root.attribute("platform").map(str::to_owned);
        let mut functions = Vec::new();
        for fe in root.children_named("function") {
            let name = fe
                .attribute("name")
                .ok_or_else(|| ProfileError::schema("<function> missing name attribute"))?
                .to_owned();
            let mut error_returns = Vec::new();
            for ee in fe.children_named("error-codes") {
                let retval_text = ee
                    .attribute("retval")
                    .ok_or_else(|| ProfileError::schema("<error-codes> missing retval attribute"))?;
                let retval = retval_text.parse::<i64>().map_err(|_| ProfileError::InvalidNumber {
                    field: "retval".into(),
                    text: retval_text.to_owned(),
                })?;
                let mut side_effects = Vec::new();
                for se in ee.children_named("side-effect") {
                    let kind_text = se
                        .attribute("type")
                        .ok_or_else(|| ProfileError::schema("<side-effect> missing type attribute"))?;
                    let kind = SideEffectKind::parse(kind_text)
                        .ok_or_else(|| ProfileError::schema(format!("unknown side-effect type {kind_text:?}")))?;
                    let module = se.attribute("module").unwrap_or("").to_owned();
                    let offset_text = se.attribute("offset").unwrap_or("0");
                    let offset = u32::from_str_radix(offset_text, 16).map_err(|_| ProfileError::InvalidNumber {
                        field: "offset".into(),
                        text: offset_text.to_owned(),
                    })?;
                    let value_text = se.text_content();
                    let value = value_text.parse::<i64>().map_err(|_| ProfileError::InvalidNumber {
                        field: "side-effect value".into(),
                        text: value_text.clone(),
                    })?;
                    side_effects.push(SideEffect { kind, module, offset, value });
                }
                error_returns.push(ErrorReturn { retval, side_effects });
            }
            functions.push(FunctionProfile { name, error_returns });
        }
        Ok(FaultProfile { library, platform, functions })
    }
}

impl fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault profile of {}: {} functions, {} injectable faults",
            self.library,
            self.function_count(),
            self.total_faults()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close_profile() -> FaultProfile {
        let mut profile = FaultProfile::new("libc.so.6").with_platform("Linux/x86");
        profile.push_function(FunctionProfile {
            name: "close".into(),
            error_returns: vec![ErrorReturn {
                retval: -1,
                side_effects: vec![
                    SideEffect::tls("libc.so.6", 0x12fff4, -9),
                    SideEffect::tls("libc.so.6", 0x12fff4, -5),
                    SideEffect::tls("libc.so.6", 0x12fff4, -4),
                ],
            }],
        });
        profile.push_function(FunctionProfile::new("getpid"));
        profile
    }

    #[test]
    fn xml_round_trip_preserves_profile() {
        let profile = close_profile();
        let xml = profile.to_xml();
        assert!(xml.contains("<function name=\"close\">"));
        assert!(xml.contains("retval=\"-1\""));
        assert!(xml.contains("offset=\"12FFF4\""));
        let parsed = FaultProfile::from_xml(&xml).unwrap();
        assert_eq!(parsed, profile);
    }

    #[test]
    fn counting_and_lookup() {
        let profile = close_profile();
        assert_eq!(profile.function_count(), 2);
        assert_eq!(profile.total_faults(), 3);
        let close = profile.function("close").unwrap();
        assert_eq!(close.fault_count(), 3);
        assert_eq!(close.error_values().into_iter().collect::<Vec<_>>(), vec![-1]);
        assert_eq!(
            close.error_returns[0].errno_values(),
            vec![-9, -5, -4]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
        assert!(profile.function("getpid").unwrap().is_empty());
        assert!(profile.function("missing").is_none());
        assert!(profile.to_string().contains("libc.so.6"));
    }

    #[test]
    fn retain_functions_narrows_the_profile() {
        let mut profile = close_profile();
        profile.retain_functions(&["close"]);
        assert_eq!(profile.function_count(), 1);
        assert!(profile.function("getpid").is_none());
    }

    #[test]
    fn schema_violations_are_reported() {
        assert!(matches!(FaultProfile::from_xml("<plan />"), Err(ProfileError::Schema { .. })));
        assert!(matches!(FaultProfile::from_xml("<profile><function /></profile>"), Err(ProfileError::Schema { .. })));
        assert!(matches!(
            FaultProfile::from_xml("<profile><function name=\"f\"><error-codes /></function></profile>"),
            Err(ProfileError::Schema { .. })
        ));
        assert!(matches!(
            FaultProfile::from_xml("<profile><function name=\"f\"><error-codes retval=\"x\" /></function></profile>"),
            Err(ProfileError::InvalidNumber { .. })
        ));
        assert!(matches!(FaultProfile::from_xml("not xml"), Err(ProfileError::Xml(_))));
    }

    #[test]
    fn bare_error_returns_count_as_one_fault() {
        let mut profile = FaultProfile::new("libx.so");
        profile.push_function(FunctionProfile {
            name: "f".into(),
            error_returns: vec![ErrorReturn::bare(-1), ErrorReturn::bare(-2)],
        });
        assert_eq!(profile.total_faults(), 2);
    }

    #[test]
    fn output_arg_side_effects_round_trip() {
        let mut profile = FaultProfile::new("libssl.so");
        profile.push_function(FunctionProfile {
            name: "ssl_read".into(),
            error_returns: vec![ErrorReturn {
                retval: -1,
                side_effects: vec![SideEffect::output_arg("libssl.so", 2, 0), SideEffect::global("libssl.so", 0x40, 7)],
            }],
        });
        let parsed = FaultProfile::from_xml(&profile.to_xml()).unwrap();
        assert_eq!(parsed, profile);
    }
}
