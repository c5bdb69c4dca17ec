//! Drivers that regenerate every table and figure of the paper's evaluation
//! (§6) plus the §3 statistics.  Each driver returns a structured result with
//! a `render()` method that prints the same rows the paper prints; the
//! `repro` binary in `lfi-bench` and the Criterion benches both call into
//! this module, and EXPERIMENTS.md records the outputs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use lfi_apps::apache::ab::run_ab;
use lfi_apps::apache::{most_called_functions, ApacheServer, RequestKind};
use lfi_apps::mysql::sysbench::{run_oltp, OltpMode};
use lfi_apps::mysql::MysqlServer;
use lfi_apps::{base_process, new_world};
use lfi_controller::{Campaign, ExecutionPolicy, Injector, TestCase};
use lfi_corpus::survey::{DetailChannel, SurveyConfig, TABLE1_EXPECTED};
use lfi_corpus::{
    build_kernel, build_libc_scaled, build_libpcre, build_table2_corpus, libc_errno_documentation, Table2Entry,
};
use lfi_disasm::{CodeStats, Disassembler};
use lfi_docs::{CombinedProfile, DocParser, DocumentationSet, StylePolicy};
use lfi_isa::Platform;
use lfi_objfile::ReturnType;
use lfi_profile::{FaultProfile, SideEffectKind};
use lfi_profiler::{score_profile, score_sets, AccuracyReport, Profiler, ProfilerOptions};
use lfi_runtime::ExitStatus;
use lfi_scenario::generator::{Random, ReadyMade, ScenarioGenerator, TriggerLoad};

// ---------------------------------------------------------------------------
// Table 1 — how libraries expose error details
// ---------------------------------------------------------------------------

/// One measured cell of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Return type (row label in the paper).
    pub return_type: ReturnType,
    /// Error-detail channel (column label in the paper).
    pub channel: DetailChannel,
    /// Measured fraction of all surveyed functions.
    pub measured: f64,
    /// The fraction the paper reports.
    pub paper: f64,
}

/// The result of the Table 1 survey.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// Number of functions surveyed.
    pub functions: usize,
    /// Measured cells.
    pub rows: Vec<Table1Row>,
}

impl Table1Result {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Table 1: error-detail channels over {} functions", self.functions);
        let _ = writeln!(out, "{:<10} {:<18} {:>10} {:>10}", "Return", "Details via", "measured", "paper");
        for row in &self.rows {
            let channel = match row.channel {
                DetailChannel::None => "none",
                DetailChannel::GlobalLocation => "global location",
                DetailChannel::Arguments => "arguments",
            };
            let _ = writeln!(
                out,
                "{:<10} {:<18} {:>9.1}% {:>9.1}%",
                row.return_type.to_string(),
                channel,
                row.measured * 100.0,
                row.paper * 100.0
            );
        }
        out
    }
}

/// Runs the Table 1 survey: generate the corpus, profile every library and
/// classify each exported function by (return type, error-detail channel).
pub fn table1_survey(config: SurveyConfig) -> Table1Result {
    let corpus = lfi_corpus::survey_corpus(config);
    let mut counts: BTreeMap<(u8, u8), usize> = BTreeMap::new();
    let mut functions = 0usize;

    for library in &corpus {
        let mut profiler = Profiler::new();
        profiler.add_library(library.object.clone());
        let report = profiler.profile_library(library.object.name()).expect("survey library profiles");
        for (_, symbol) in library.object.exported_symbols() {
            let Some(signature) = symbol.signature else { continue };
            functions += 1;
            let channel = report
                .profile
                .function(&symbol.name)
                .map(|f| classify_channel(f.error_returns.iter().flat_map(|e| e.side_effects.iter())))
                .unwrap_or(DetailChannel::None);
            *counts.entry((return_type_tag(signature.return_type), channel_tag(channel))).or_insert(0) += 1;
        }
    }

    let rows = TABLE1_EXPECTED
        .iter()
        .map(|cell| {
            let count = counts
                .get(&(return_type_tag(cell.return_type), channel_tag(cell.channel)))
                .copied()
                .unwrap_or(0);
            Table1Row {
                return_type: cell.return_type,
                channel: cell.channel,
                measured: if functions == 0 { 0.0 } else { count as f64 / functions as f64 },
                paper: cell.fraction,
            }
        })
        .collect();
    Table1Result { functions, rows }
}

fn classify_channel<'a>(effects: impl Iterator<Item = &'a lfi_profile::SideEffect>) -> DetailChannel {
    let mut channel = DetailChannel::None;
    for effect in effects {
        match effect.kind {
            SideEffectKind::OutputArg => return DetailChannel::Arguments,
            SideEffectKind::Tls | SideEffectKind::Global => channel = DetailChannel::GlobalLocation,
        }
    }
    channel
}

fn return_type_tag(rt: ReturnType) -> u8 {
    match rt {
        ReturnType::Void => 0,
        ReturnType::Scalar => 1,
        ReturnType::Pointer => 2,
    }
}

fn channel_tag(c: DetailChannel) -> u8 {
    match c {
        DetailChannel::None => 0,
        DetailChannel::GlobalLocation => 1,
        DetailChannel::Arguments => 2,
    }
}

// ---------------------------------------------------------------------------
// Table 2 — profiler accuracy vs documentation
// ---------------------------------------------------------------------------

/// One row of the measured Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The library and the paper's numbers.
    pub entry: Table2Entry,
    /// The accuracy measured against the corpus documentation model.
    pub measured: AccuracyReport,
    /// Profiling time for this library.
    pub profiling_time: Duration,
    /// Code size of the library, in bytes.
    pub code_size: usize,
    /// Exported functions.
    pub exports: usize,
}

/// The result of the Table 2 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// One row per library, in the paper's order.
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table 2: profiler accuracy (paper values in parentheses)\n{:<16} {:<14} {:>9} {:>12} {:>12} {:>12}",
            "Library", "Platform", "Accuracy", "TPs", "FNs", "FPs"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<16} {:<14} {:>7}% ({:>3}%) {:>5} ({:>4}) {:>5} ({:>3}) {:>5} ({:>3})",
                row.entry.name,
                row.entry.platform.to_string(),
                row.measured.accuracy_percent(),
                (row.entry.expected_accuracy() * 100.0).round() as u32,
                row.measured.true_positives,
                row.entry.true_positives,
                row.measured.false_negatives,
                row.entry.false_negatives,
                row.measured.false_positives,
                row.entry.false_positives,
            );
        }
        out
    }
}

/// Runs the Table 2 experiment over the whole named corpus.
pub fn table2_accuracy(seed: u64) -> Table2Result {
    let corpus = build_table2_corpus(seed);
    let rows = corpus
        .iter()
        .map(|(entry, library)| {
            let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
            profiler.add_library(library.compiled.object.clone());
            let report = profiler.profile_library(library.name()).expect("corpus library profiles");
            let measured = score_profile(&report.profile, &library.documentation);
            Table2Row {
                entry: *entry,
                measured,
                profiling_time: report.stats.duration,
                code_size: report.stats.code_size_bytes,
                exports: report.stats.functions_analyzed,
            }
        })
        .collect();
    Table2Result { rows }
}

/// The libpcre manual-inspection experiment of §6.3: accuracy against
/// execution-derived ground truth.
pub fn libpcre_accuracy(seed: u64) -> AccuracyReport {
    let library = build_libpcre(seed);
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(library.compiled.object.clone());
    let report = profiler.profile_library(library.name()).expect("libpcre profiles");
    score_profile(&report.profile, &library.execution_truth)
}

// ---------------------------------------------------------------------------
// §6.3 extension — combining static analysis with parsed documentation
// ---------------------------------------------------------------------------

/// One row of the combined static+documentation accuracy experiment.
///
/// The paper notes that "should structured documentation exist and a
/// documentation parser be available, it can be combined with LFI's static
/// analysis to yield higher accuracy" (§6.3).  This experiment measures all
/// three profiles — static-only, documentation-only, and their union — against
/// execution-derived ground truth for every Table 2 library, with the manual
/// rendered realistically (vague pages, cross-references, a few stale values)
/// and recovered by [`lfi_docs::DocParser`].
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedAccuracyRow {
    /// The library and the paper's Table 2 numbers.
    pub entry: Table2Entry,
    /// Static analysis alone, scored against execution truth.
    pub static_only: AccuracyReport,
    /// Parsed documentation alone, scored against execution truth.
    pub documentation_only: AccuracyReport,
    /// The union of the two sources, scored against execution truth.
    pub combined: AccuracyReport,
}

/// The result of the combined-accuracy experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedAccuracyResult {
    /// One row per Table 2 library.
    pub rows: Vec<CombinedAccuracyRow>,
}

impl CombinedAccuracyResult {
    /// Aggregate accuracy over the whole corpus for each source.
    pub fn aggregate(&self) -> (AccuracyReport, AccuracyReport, AccuracyReport) {
        let mut static_only = AccuracyReport::default();
        let mut documentation_only = AccuracyReport::default();
        let mut combined = AccuracyReport::default();
        for row in &self.rows {
            static_only.absorb(row.static_only);
            documentation_only.absorb(row.documentation_only);
            combined.absorb(row.combined);
        }
        (static_only, documentation_only, combined)
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Combined static+documentation accuracy vs execution truth (§6.3 extension)\n{:<16} {:<14} {:>10} {:>10} {:>10}",
            "Library", "Platform", "Static", "Docs", "Combined"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<16} {:<14} {:>9}% {:>9}% {:>9}%",
                row.entry.name,
                row.entry.platform.to_string(),
                row.static_only.accuracy_percent(),
                row.documentation_only.accuracy_percent(),
                row.combined.accuracy_percent(),
            );
        }
        let (static_only, docs, combined) = self.aggregate();
        let _ = writeln!(
            out,
            "{:<16} {:<14} {:>9}% {:>9}% {:>9}%",
            "aggregate",
            "",
            static_only.accuracy_percent(),
            docs.accuracy_percent(),
            combined.accuracy_percent(),
        );
        out
    }
}

/// Runs the combined-accuracy experiment over the Table 2 corpus.
pub fn combined_accuracy(seed: u64) -> CombinedAccuracyResult {
    let corpus = build_table2_corpus(seed);
    let rows = corpus
        .iter()
        .enumerate()
        .map(|(index, (entry, library))| {
            let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
            profiler.add_library(library.compiled.object.clone());
            let report = profiler.profile_library(library.name()).expect("corpus library profiles");

            // Render the library's manual realistically and parse it back.
            let manual = DocumentationSet::from_error_map(
                library.name(),
                &library.documentation,
                StylePolicy::realistic(),
                seed.wrapping_add(index as u64),
            );
            let mut parsed = DocParser::new()
                .parse_set(library.name(), &manual.render())
                .expect("generated manual parses");
            parsed.resolve_cross_references().expect("generated manuals have resolvable references");

            let combined_profile = CombinedProfile::combine(&report.profile, &parsed);
            CombinedAccuracyRow {
                entry: *entry,
                static_only: score_profile(&report.profile, &library.execution_truth),
                documentation_only: score_sets(&parsed.error_sets(), &library.execution_truth),
                combined: score_sets(&combined_profile.error_sets(), &library.execution_truth),
            }
        })
        .collect();
    CombinedAccuracyResult { rows }
}

// ---------------------------------------------------------------------------
// §3.1 ablation — the two unsound filtering heuristics
// ---------------------------------------------------------------------------

/// Aggregate numbers for one profiler configuration in the heuristics
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicsCell {
    /// Total error values reported across the corpus (each one is a fault the
    /// exhaustive scenario would inject).
    pub reported_values: usize,
    /// Accuracy against the documentation model.
    pub vs_documentation: AccuracyReport,
    /// Accuracy against execution-derived ground truth.
    pub vs_execution: AccuracyReport,
}

/// The result of the heuristics ablation: the §3.1 filtering heuristics are
/// unsound (they can drop genuine faults), so the paper disables them by
/// default; this experiment quantifies the trade-off on the Table 2 corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicsAblationResult {
    /// Both heuristics disabled (the paper's default).
    pub conservative: HeuristicsCell,
    /// Both heuristics enabled.
    pub with_heuristics: HeuristicsCell,
}

impl HeuristicsAblationResult {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Heuristics ablation over the Table 2 corpus (§3.1)");
        let _ = writeln!(
            out,
            "{:<26} {:>16} {:>16} {:>16}",
            "Configuration", "reported values", "acc. vs docs", "acc. vs truth"
        );
        for (label, cell) in
            [("conservative (default)", self.conservative), ("heuristics enabled", self.with_heuristics)]
        {
            let _ = writeln!(
                out,
                "{:<26} {:>16} {:>15}% {:>15}%",
                label,
                cell.reported_values,
                cell.vs_documentation.accuracy_percent(),
                cell.vs_execution.accuracy_percent()
            );
        }
        out
    }
}

/// Runs the heuristics ablation over the Table 2 corpus.
pub fn heuristics_ablation(seed: u64) -> HeuristicsAblationResult {
    let corpus = build_table2_corpus(seed);
    let measure = |options: ProfilerOptions| -> HeuristicsCell {
        let mut reported_values = 0usize;
        let mut vs_documentation = AccuracyReport::default();
        let mut vs_execution = AccuracyReport::default();
        for (_, library) in &corpus {
            let mut profiler = Profiler::with_options(options);
            profiler.add_library(library.compiled.object.clone());
            let report = profiler.profile_library(library.name()).expect("corpus library profiles");
            reported_values += report.profile.functions.iter().map(|f| f.error_values().len()).sum::<usize>();
            vs_documentation.absorb(score_profile(&report.profile, &library.documentation));
            vs_execution.absorb(score_profile(&report.profile, &library.execution_truth));
        }
        HeuristicsCell { reported_values, vs_documentation, vs_execution }
    };
    HeuristicsAblationResult {
        conservative: measure(ProfilerOptions::conservative()),
        with_heuristics: measure(ProfilerOptions::with_heuristics()),
    }
}

// ---------------------------------------------------------------------------
// §3.1 extension — argument-dependent error values
// ---------------------------------------------------------------------------

/// One example of an argument-gated error value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgDependenceExample {
    /// The exported function.
    pub function: String,
    /// The gated error return value.
    pub value: i64,
    /// Human-readable constraints ("arg0 == 2 && arg1 != 0").
    pub constraints: String,
}

/// The result of the argument-dependence analysis over one library.
///
/// §3.1 lists argument-dependent error codes (the `read`/`EWOULDBLOCK`
/// example) as a source of false positives that symbolic reasoning about
/// arguments could eliminate; this experiment runs the reproduction's
/// lightweight constraint inference ([`lfi_profiler::ArgConstraint`]) over a
/// profiled library and reports how much of the fault profile is
/// argument-gated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgDependenceResult {
    /// The analyzed library.
    pub library: String,
    /// Exported functions analyzed.
    pub functions_analyzed: usize,
    /// Functions with at least one argument-gated error value.
    pub functions_with_constraints: usize,
    /// Total error values in the fault profile.
    pub total_error_values: usize,
    /// Error values gated by at least one argument constraint.
    pub constrained_values: usize,
    /// A few example constraints, for the report.
    pub examples: Vec<ArgDependenceExample>,
}

impl ArgDependenceResult {
    /// Renders the summary in the repro harness's format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Argument-dependent error values in {} (§3.1 extension)", self.library);
        let _ = writeln!(
            out,
            "  exported functions analyzed: {}   with argument-gated errors: {}",
            self.functions_analyzed, self.functions_with_constraints
        );
        let _ = writeln!(
            out,
            "  error values in profile: {}   argument-gated: {} ({:.0}%)",
            self.total_error_values,
            self.constrained_values,
            if self.total_error_values == 0 {
                0.0
            } else {
                self.constrained_values as f64 / self.total_error_values as f64 * 100.0
            }
        );
        for example in &self.examples {
            let _ = writeln!(
                out,
                "  e.g. {} returns {} only when {}",
                example.function, example.value, example.constraints
            );
        }
        out
    }
}

/// Runs the argument-dependence analysis over the libc corpus.
pub fn argument_dependence(exports: usize) -> ArgDependenceResult {
    let platform = Platform::LinuxX86;
    let library = build_libc_scaled(platform, exports);
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(library.compiled.object.clone());
    profiler.set_kernel(build_kernel(platform));
    let report = profiler.profile_library(library.name()).expect("libc profiles");
    let constraints = profiler.argument_constraints(library.name()).expect("libc constraint analysis");

    let total_error_values: usize = report.profile.functions.iter().map(|f| f.error_values().len()).sum();
    let mut constrained_values = 0usize;
    let mut examples = Vec::new();
    for function in &report.profile.functions {
        let Some(per_value) = constraints.get(&function.name) else {
            continue;
        };
        for value in function.error_values() {
            if let Some(gates) = per_value.get(&value) {
                constrained_values += 1;
                if examples.len() < 3 {
                    let rendered: Vec<String> = gates.iter().map(ToString::to_string).collect();
                    examples.push(ArgDependenceExample {
                        function: function.name.clone(),
                        value,
                        constraints: rendered.join(" && "),
                    });
                }
            }
        }
    }
    ArgDependenceResult {
        library: library.name().to_owned(),
        functions_analyzed: report.stats.functions_analyzed,
        functions_with_constraints: constraints.len(),
        total_error_values,
        constrained_values,
        examples,
    }
}

// ---------------------------------------------------------------------------
// Tables 3 and 4 — runtime overhead
// ---------------------------------------------------------------------------

/// The trigger counts used by the paper's overhead experiments.
pub const TRIGGER_COUNTS: &[usize] = &[0, 10, 100, 500, 1000];

/// One measured cell of Table 3 or 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadRow {
    /// Number of triggers in the fault plan (0 = baseline, no LFI).
    pub triggers: usize,
    /// Measured metric: seconds for Table 3, transactions/second for Table 4.
    pub value: f64,
}

/// The result of an overhead experiment: one series per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadResult {
    /// Experiment title.
    pub title: String,
    /// Metric label (e.g. "seconds" or "txns/sec").
    pub metric: String,
    /// Workload label → measured series.
    pub series: Vec<(String, Vec<OverheadRow>)>,
}

impl OverheadResult {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} ({})", self.title, self.metric);
        let mut header = format!("{:<18}", "Triggers");
        for (label, _) in &self.series {
            header.push_str(&format!("{label:>16}"));
        }
        let _ = writeln!(out, "{header}");
        let rows = self.series.first().map_or(0, |(_, rows)| rows.len());
        for index in 0..rows {
            let triggers = self.series[0].1[index].triggers;
            let label = if triggers == 0 {
                "Baseline (no LFI)".to_owned()
            } else {
                format!("{triggers} triggers")
            };
            let mut line = format!("{label:<18}");
            for (_, series) in &self.series {
                line.push_str(&format!("{:>16.3}", series[index].value));
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// The worst relative overhead across every series, in percent (Table 3/4
    /// should stay in the low single digits).
    pub fn max_overhead_percent(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for (_, rows) in &self.series {
            let Some(baseline) = rows.iter().find(|r| r.triggers == 0) else {
                continue;
            };
            for row in rows {
                let overhead = if self.metric.contains("txns") {
                    (baseline.value - row.value) / baseline.value
                } else {
                    (row.value - baseline.value) / baseline.value
                };
                worst = worst.max(overhead * 100.0);
            }
        }
        worst
    }
}

fn apache_profiles() -> Vec<FaultProfile> {
    let platform = Platform::LinuxX86;
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(build_libc_scaled(platform, 80).compiled.object);
    profiler.add_library(lfi_corpus::libc::build_apr_scaled(platform, 40).compiled.object);
    profiler.add_library(lfi_corpus::libc::build_aprutil_scaled(platform, 30).compiled.object);
    profiler.set_kernel(build_kernel(platform));
    profiler
        .profile_all()
        .expect("apache libraries profile")
        .into_iter()
        .map(|r| r.profile)
        .collect()
}

/// How many times each Table 3/4 cell is measured.  The best of the
/// repetitions is reported, which suppresses host-side noise (allocator
/// growth, page faults, scheduling) that would otherwise dwarf the small
/// trigger-evaluation overhead the experiment is trying to expose.
pub const OVERHEAD_REPS: usize = 3;

/// Table 3: Apache + AB completion time for `requests` requests, for both
/// workloads and every trigger count.
pub fn table3_apache_overhead(requests: u64, seed: u64) -> OverheadResult {
    let profiles = apache_profiles();
    // One untimed end-to-end pass grows the heap and touches every code path
    // before any timed cell runs, so the first (baseline) cell is not
    // penalized for being first.
    for kind in [RequestKind::StaticHtml, RequestKind::Php] {
        let world = new_world();
        let mut process = base_process(&world, true);
        let mut server = ApacheServer::start(&mut process);
        let _ = run_ab(&mut server, &mut process, kind, requests / 4 + 1);
    }
    let mut series = Vec::new();
    for (label, kind) in [("Static HTML", RequestKind::StaticHtml), ("PHP", RequestKind::Php)] {
        let mut rows = Vec::new();
        for &triggers in TRIGGER_COUNTS {
            let mut best = f64::INFINITY;
            for _ in 0..OVERHEAD_REPS {
                let world = new_world();
                let mut process = base_process(&world, true);
                if triggers > 0 {
                    let top = most_called_functions(triggers.min(300));
                    let plan = TriggerLoad::new(top, triggers, seed).generate(&profiles);
                    let injector = Injector::new(&plan);
                    process.preload(injector.synthesize_interceptor());
                }
                let mut server = ApacheServer::start(&mut process);
                // Warm up the server's own caches before the timed run.
                let _ = run_ab(&mut server, &mut process, kind, requests / 10 + 1);
                let report = run_ab(&mut server, &mut process, kind, requests);
                best = best.min(report.completion_seconds());
            }
            rows.push(OverheadRow { triggers, value: best });
        }
        series.push((label.to_owned(), rows));
    }
    OverheadResult {
        title: format!("Table 3: Apache httpd + AB, completion time of {requests} requests"),
        metric: "seconds".to_owned(),
        series,
    }
}

/// Table 4: MySQL + SysBench OLTP throughput for both workloads and every
/// trigger count.
pub fn table4_mysql_overhead(transactions: u64, seed: u64) -> OverheadResult {
    let platform = Platform::LinuxX86;
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(build_libc_scaled(platform, 80).compiled.object);
    profiler.set_kernel(build_kernel(platform));
    let profiles = vec![profiler.profile_library("libc.so.6").expect("libc profiles").profile];
    let top: Vec<&str> = vec!["send", "malloc", "free", "write", "read", "recv", "fsync", "open", "close", "socket"];

    // Untimed end-to-end warm-up pass (see `table3_apache_overhead`).
    for mode in [OltpMode::ReadOnly, OltpMode::ReadWrite] {
        let world = new_world();
        let mut process = base_process(&world, false);
        let mut server = MysqlServer::start(&mut process);
        for i in 0..100 {
            let _ = server.insert(&mut process, i, true);
        }
        let _ = run_oltp(&mut server, &mut process, mode, transactions / 4 + 1);
    }
    let mut series = Vec::new();
    for (label, mode) in [("Read-only", OltpMode::ReadOnly), ("Read/Write", OltpMode::ReadWrite)] {
        let mut rows = Vec::new();
        for &triggers in TRIGGER_COUNTS {
            let mut best = 0.0f64;
            for _ in 0..OVERHEAD_REPS {
                let world = new_world();
                let mut process = base_process(&world, false);
                if triggers > 0 {
                    let plan = TriggerLoad::new(top.iter().copied(), triggers, seed).generate(&profiles);
                    let injector = Injector::new(&plan);
                    process.preload(injector.synthesize_interceptor());
                }
                let mut server = MysqlServer::start(&mut process);
                for i in 0..100 {
                    let _ = server.insert(&mut process, i, true);
                }
                // Warm-up transactions before the timed run.
                let _ = run_oltp(&mut server, &mut process, mode, transactions / 10 + 1);
                let report = run_oltp(&mut server, &mut process, mode, transactions);
                best = best.max(report.throughput());
            }
            rows.push(OverheadRow { triggers, value: best });
        }
        series.push((label.to_owned(), rows));
    }
    OverheadResult {
        title: format!("Table 4: MySQL + SysBench OLTP, {transactions} transactions"),
        metric: "txns/sec".to_owned(),
        series,
    }
}

// ---------------------------------------------------------------------------
// §6.2 — profiling efficiency
// ---------------------------------------------------------------------------

/// One row of the profiling-time experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyRow {
    /// Library name.
    pub library: String,
    /// Exported functions.
    pub exports: usize,
    /// Code size in bytes.
    pub code_size: usize,
    /// Profiling time.
    pub duration: Duration,
    /// Longest propagation chain observed.
    pub max_hops: usize,
}

/// The result of the efficiency experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyResult {
    /// One row per profiled library, smallest first.
    pub rows: Vec<EfficiencyRow>,
}

impl EfficiencyResult {
    /// Renders the §6.2 summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Profiling efficiency (§6.2)\n{:<18} {:>10} {:>12} {:>12} {:>6}",
            "Library", "exports", "code bytes", "time (ms)", "hops"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<18} {:>10} {:>12} {:>12.2} {:>6}",
                row.library,
                row.exports,
                row.code_size,
                row.duration.as_secs_f64() * 1000.0,
                row.max_hops
            );
        }
        out
    }
}

/// Profiles a small, a large and a very large library and reports times —
/// the libdmx (0.2 s) … libxml2 (20 s) range of §6.2.
pub fn profiling_efficiency(seed: u64) -> EfficiencyResult {
    let entries = [lfi_corpus::named::libdmx_entry(), lfi_corpus::named::libxml2_linux_entry()];
    let mut rows = Vec::new();
    for entry in entries {
        let library = lfi_corpus::build_table2_library(&entry, seed);
        let mut profiler = Profiler::new();
        profiler.add_library(library.compiled.object.clone());
        let report = profiler.profile_library(library.name()).expect("library profiles");
        rows.push(EfficiencyRow {
            library: format!("{}.so", entry.name),
            exports: report.stats.functions_analyzed,
            code_size: report.stats.code_size_bytes,
            duration: report.stats.duration,
            max_hops: report.stats.max_propagation_hops,
        });
    }
    // Full-scale libc rounds out the range.
    let libc = build_libc_scaled(Platform::LinuxX86, lfi_corpus::libc::LIBC_EXPORTS);
    let mut profiler = Profiler::new();
    profiler.add_library(libc.compiled.object.clone());
    profiler.set_kernel(build_kernel(Platform::LinuxX86));
    let report = profiler.profile_library("libc.so.6").expect("libc profiles");
    rows.push(EfficiencyRow {
        library: "libc.so.6".to_owned(),
        exports: report.stats.functions_analyzed,
        code_size: report.stats.code_size_bytes,
        duration: report.stats.duration,
        max_hops: report.stats.max_propagation_hops,
    });
    rows.sort_by_key(|r| r.code_size);
    EfficiencyResult { rows }
}

// ---------------------------------------------------------------------------
// §6.1 — effectiveness: the Pidgin bug and MySQL coverage
// ---------------------------------------------------------------------------

/// The result of the Pidgin bug hunt.
#[derive(Debug, Clone, PartialEq)]
pub struct PidginHuntResult {
    /// Number of login attempts executed before the first crash.
    pub attempts_until_crash: Option<usize>,
    /// The exit status of the crashing run.
    pub crash_status: Option<ExitStatus>,
    /// Whether the replay script reproduced the same crash.
    pub replay_reproduced: bool,
    /// Number of injections recorded in the crashing run.
    pub injections_in_crash: usize,
}

impl PidginHuntResult {
    /// Renders the §6.1 narrative.
    pub fn render(&self) -> String {
        match (self.attempts_until_crash, self.crash_status) {
            (Some(attempts), Some(status)) => format!(
                "Pidgin bug hunt: crash after {attempts} login attempt(s): {status}; {} injection(s); replay reproduced: {}\n",
                self.injections_in_crash, self.replay_reproduced
            ),
            _ => "Pidgin bug hunt: no crash observed\n".to_owned(),
        }
    }
}

/// Runs Pidgin login test cases under a stop-on-first-crash policy and
/// returns the report.  The [`lfi_apps::PidginLogin`] workload builds a
/// fresh simulated world per case in its `setup` hook.
fn pidgin_campaign(cases: Vec<TestCase>) -> lfi_controller::CampaignReport {
    Campaign::new()
        .cases(cases)
        .policy(ExecutionPolicy::run_all().stop_on_first_crash())
        .run_workload(lfi_apps::PidginLogin::new())
}

/// Hunts for the Pidgin DNS-resolver bug with the §6.1 configuration: a
/// campaign of random I/O fault scenarios over libc with 10% injection
/// probability, stopped at the first crash (bounded by `max_attempts` test
/// cases).
pub fn pidgin_bug_hunt(max_attempts: usize, seed: u64) -> PidginHuntResult {
    let platform = Platform::LinuxX86;
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(build_libc_scaled(platform, 80).compiled.object);
    profiler.set_kernel(build_kernel(platform));
    let libc_profile = profiler.profile_library("libc.so.6").expect("libc profiles").profile;

    // One test case per seed, as an automated campaign would generate them.
    // Faultloads are generated in batches so a crash found early (the
    // common outcome) does not pay for plans the stop-on-first-crash policy
    // would only discard.
    const BATCH: usize = 16;
    let probability = 0.10;
    let mut attempts_run = 0usize;
    for batch_start in (0..max_attempts).step_by(BATCH) {
        let cases: Vec<TestCase> = (batch_start..(batch_start + BATCH).min(max_attempts))
            .map(|attempt| {
                let generator = ReadyMade::random_io(probability, seed.wrapping_add(attempt as u64))
                    .expect("0.10 is a valid probability");
                TestCase::new(
                    format!("random-io-{attempt:03}"),
                    generator.generate(std::slice::from_ref(&libc_profile)),
                )
            })
            .collect();
        let report = pidgin_campaign(cases);
        attempts_run += report.outcomes.len();
        let crash = report.crashes().next().cloned();
        if let Some(crash) = crash {
            // Reproduce with the replay script, as the paper does before
            // attaching gdb.
            let replay_report = pidgin_campaign(vec![TestCase::new("replay", crash.replay.clone())]);
            return PidginHuntResult {
                attempts_until_crash: Some(attempts_run),
                crash_status: Some(crash.status),
                replay_reproduced: replay_report.outcomes.first().is_some_and(|o| o.status == crash.status),
                injections_in_crash: crash.injection_count(),
            };
        }
    }
    PidginHuntResult {
        attempts_until_crash: None,
        crash_status: None,
        replay_reproduced: false,
        injections_in_crash: 0,
    }
}

/// The result of the MySQL coverage experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct MysqlCoverageResult {
    /// Overall coverage of the unmodified test suite.
    pub baseline_overall: f64,
    /// Overall coverage with LFI's random libc scenario active.
    pub injected_overall: f64,
    /// ibuf-module coverage without injection.
    pub baseline_ibuf: f64,
    /// ibuf-module coverage with injection.
    pub injected_ibuf: f64,
    /// SIGSEGV crashes observed during the injected run.
    pub crashes: usize,
}

impl MysqlCoverageResult {
    /// Renders the §6.1 coverage table.
    pub fn render(&self) -> String {
        format!(
            "MySQL test-suite coverage (§6.1)\n{:<24} {:>10} {:>10}\n{:<24} {:>9.1}% {:>9.1}%\n{:<24} {:>9.1}% {:>9.1}%\ncrashes during injected run: {}\n",
            "", "baseline", "with LFI",
            "overall", self.baseline_overall * 100.0, self.injected_overall * 100.0,
            "innodb ibuf module", self.baseline_ibuf * 100.0, self.injected_ibuf * 100.0,
            self.crashes
        )
    }
}

/// Runs the MySQL test suite with and without a random libc fault scenario
/// and reports the coverage improvement (§6.1).
pub fn mysql_coverage(cases: usize, seed: u64) -> MysqlCoverageResult {
    let platform = Platform::LinuxX86;
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(build_libc_scaled(platform, 80).compiled.object);
    profiler.set_kernel(build_kernel(platform));
    let libc_profile = profiler.profile_library("libc.so.6").expect("libc profiles").profile;

    // Baseline run.
    let world = new_world();
    let mut process = base_process(&world, false);
    let mut server = MysqlServer::start(&mut process);
    let baseline = server.run_test_suite(&mut process, cases);

    // Injected run: random scenario over all of libc, fully automatic.
    let plan = Random::new(0.05, seed).expect("0.05 is a valid probability").generate(&[libc_profile]);
    let world = new_world();
    let mut process = base_process(&world, false);
    let injector = Injector::new(&plan);
    process.preload(injector.synthesize_interceptor());
    let mut server = MysqlServer::start(&mut process);
    let injected = server.run_test_suite(&mut process, cases);

    MysqlCoverageResult {
        baseline_overall: baseline.overall_coverage(),
        injected_overall: injected.overall_coverage(),
        baseline_ibuf: baseline.coverage.module("innodb_ibuf"),
        injected_ibuf: injected.coverage.module("innodb_ibuf"),
        crashes: injected.crashes,
    }
}

// ---------------------------------------------------------------------------
// §3.1 statistics, doc mismatches, Figure 2
// ---------------------------------------------------------------------------

/// The indirect-call / indirect-branch statistics of §3.1.
pub fn indirect_statistics(config: SurveyConfig) -> CodeStats {
    let corpus = lfi_corpus::survey_corpus(config);
    let mut stats = CodeStats::default();
    for library in &corpus {
        let disassembly = Disassembler::new()
            .disassemble_object(&library.object)
            .expect("survey library disassembles");
        stats += disassembly.stats();
    }
    stats
}

/// Renders the §3.1 statistics the way the paper quotes them.
pub fn render_indirect_statistics(stats: &CodeStats) -> String {
    format!(
        "Indirection statistics (§3.1): {} functions, {} branches ({} indirect, {:.2}%), {} calls ({} indirect, {:.2}%)\n",
        stats.functions,
        stats.total_branches(),
        stats.indirect_branches,
        stats.indirect_branch_fraction() * 100.0,
        stats.total_calls(),
        stats.indirect_calls,
        stats.indirect_call_fraction() * 100.0
    )
}

/// One documentation-mismatch finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocMismatch {
    /// Function whose documentation is incomplete.
    pub function: String,
    /// Values the binary can produce that the documentation omits.
    pub undocumented: Vec<i64>,
}

/// Reproduces the documentation-mismatch anecdotes: `close` can set EIO,
/// `modify_ldt` can set ENOMEM, `htmlParseDocument` can return 1 (§3.1,
/// §3.3).
pub fn doc_mismatches(seed: u64) -> Vec<DocMismatch> {
    let platform = Platform::LinuxX86;
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(build_libc_scaled(platform, 80).compiled.object);
    profiler.set_kernel(build_kernel(platform));
    let libc_profile = profiler.profile_library("libc.so.6").expect("libc profiles").profile;
    let docs = libc_errno_documentation();

    let mut findings = Vec::new();
    for function in ["close", "modify_ldt"] {
        let Some(profile) = libc_profile.function(function) else {
            continue;
        };
        let Some(documented) = docs.get(function) else { continue };
        let found: Vec<i64> = profile
            .error_returns
            .iter()
            .flat_map(|e| e.side_effects.iter())
            .filter(|s| s.kind == SideEffectKind::Tls)
            .map(|s| s.value)
            .filter(|v| !documented.contains(v))
            .collect();
        if !found.is_empty() {
            let mut undocumented = found;
            undocumented.sort_unstable();
            undocumented.dedup();
            findings.push(DocMismatch { function: function.to_owned(), undocumented });
        }
    }

    // libxml2's htmlParseDocument: documented 0/-1, can also return 1.
    let libxml2 = lfi_corpus::named::build_libxml2_with_doc_mismatch(seed);
    let undocumented = libxml2.undocumented_behaviour();
    if let Some(values) = undocumented.get("htmlParseDocument") {
        findings.push(DocMismatch {
            function: "htmlParseDocument".to_owned(),
            undocumented: values.iter().copied().collect(),
        });
    }
    findings
}

/// Renders the doc-mismatch findings.
pub fn render_doc_mismatches(findings: &[DocMismatch]) -> String {
    let mut out = String::from("Documentation mismatches found by the profiler (§3.1/§3.3)\n");
    for finding in findings {
        let _ = writeln!(out, "  {}: undocumented values {:?}", finding.function, finding.undocumented);
    }
    out
}

/// Figure 2: the control flow graph of one exported library function, in
/// Graphviz DOT form.
pub fn figure2_cfg_dot() -> String {
    // The paper's Figure 2 shows a small exported function (`_Z4blahi`) with a
    // diamond of constant returns; the libdmx corpus functions have the same
    // shape.
    let library = lfi_corpus::build_table2_library(&lfi_corpus::named::libdmx_entry(), 1);
    let object = &library.compiled.object;
    let (_, symbol) = object.exported_symbols().next().expect("libdmx has exports");
    let name = symbol.name.clone();
    let function = Disassembler::new().disassemble_function(object, &name).expect("function disassembles");
    function.cfg.to_dot(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_distribution_on_a_small_corpus() {
        let result = table1_survey(SurveyConfig { libraries: 2, functions_per_library: 250, seed: 3 });
        assert_eq!(result.functions, 500);
        for row in &result.rows {
            assert!((row.measured - row.paper).abs() < 0.06, "{row:?}");
        }
        assert!(result.render().contains("Table 1"));
    }

    #[test]
    fn table2_small_entries_match_paper_counts() {
        // Full Table 2 runs in the repro binary; spot-check two small
        // libraries here.
        let rows = table2_accuracy(11);
        let libdmx = rows.rows.iter().find(|r| r.entry.name == "libdmx").unwrap();
        assert_eq!(libdmx.measured.true_positives, libdmx.entry.true_positives);
        assert_eq!(libdmx.measured.false_negatives, libdmx.entry.false_negatives);
        let libgtkspell = rows.rows.iter().find(|r| r.entry.name == "libgtkspell").unwrap();
        assert_eq!(libgtkspell.measured.accuracy_percent(), 100);
        assert!(rows.render().contains("libdmx"));
    }

    #[test]
    fn libpcre_accuracy_is_84_percent() {
        let report = libpcre_accuracy(7);
        assert_eq!(report.accuracy_percent(), 84);
    }

    #[test]
    fn heuristics_trade_spurious_faults_for_accuracy_vs_documentation() {
        let result = heuristics_ablation(11);
        // Disabling the heuristics can only report more (or equally many)
        // values: they are pure filters.
        assert!(result.conservative.reported_values >= result.with_heuristics.reported_values);
        // The extra values are success returns and boolean predicates, which
        // the documentation does not list as faults, so accuracy against
        // documentation improves when the heuristics are on.
        assert!(result.with_heuristics.vs_documentation.accuracy() >= result.conservative.vs_documentation.accuracy());
        assert!(result.render().contains("conservative"));
    }

    #[test]
    fn argument_dependence_finds_gated_error_values() {
        let result = argument_dependence(60);
        assert!(result.functions_analyzed >= 40);
        assert!(result.functions_with_constraints > 0);
        assert!(result.constrained_values > 0);
        assert!(result.constrained_values <= result.total_error_values);
        assert!(!result.examples.is_empty());
        assert!(result.render().contains("argument-gated"));
    }

    #[test]
    fn combining_documentation_with_static_analysis_raises_accuracy() {
        let result = combined_accuracy(11);
        assert_eq!(result.rows.len(), 18);
        let (static_only, docs_only, combined) = result.aggregate();
        // The paper's claim: the combination beats static analysis alone.  It
        // should also beat the (realistically imperfect) documentation alone,
        // and never fall below either source.
        assert!(combined.accuracy() > static_only.accuracy(), "{combined:?} vs {static_only:?}");
        assert!(combined.accuracy() >= docs_only.accuracy(), "{combined:?} vs {docs_only:?}");
        // The union can only lose accuracy through false positives, never
        // through new false negatives.
        assert!(combined.false_negatives <= static_only.false_negatives);
        assert!(combined.false_negatives <= docs_only.false_negatives);
        assert!(result.render().contains("aggregate"));
    }

    #[test]
    fn overhead_experiments_have_small_overhead_and_the_right_shape() {
        let table3 = table3_apache_overhead(120, 5);
        assert_eq!(table3.series.len(), 2);
        assert_eq!(table3.series[0].1.len(), TRIGGER_COUNTS.len());
        assert!(table3.render().contains("Baseline"));

        let table4 = table4_mysql_overhead(60, 5);
        // Read-only throughput exceeds read/write throughput at baseline.
        let ro = table4.series[0].1[0].value;
        let rw = table4.series[1].1[0].value;
        assert!(ro > rw, "read-only {ro} vs read-write {rw}");
        assert!(table4.render().contains("txns/sec"));
    }

    #[test]
    fn pidgin_hunt_finds_and_replays_the_crash() {
        let result = pidgin_bug_hunt(50, 2009);
        assert!(result.attempts_until_crash.is_some());
        assert!(result.replay_reproduced);
        assert!(result.render().contains("crash"));
    }

    #[test]
    fn mysql_coverage_improves_with_injection() {
        let result = mysql_coverage(200, 17);
        assert!(result.baseline_overall > 0.70 && result.baseline_overall < 0.76);
        assert!(result.injected_overall >= result.baseline_overall + 0.01);
        assert!(result.injected_ibuf > result.baseline_ibuf);
        assert!(result.render().contains("ibuf"));
    }

    #[test]
    fn indirect_statistics_show_rare_indirection() {
        let stats = indirect_statistics(SurveyConfig { libraries: 2, functions_per_library: 200, seed: 1 });
        assert!(stats.indirect_branch_fraction() < 0.05);
        assert!(stats.indirect_call_fraction() < 0.05);
        assert!(render_indirect_statistics(&stats).contains("Indirection"));
    }

    #[test]
    fn doc_mismatches_include_the_papers_anecdotes() {
        let findings = doc_mismatches(3);
        let close = findings.iter().find(|f| f.function == "close").unwrap();
        assert_eq!(close.undocumented, vec![5]); // EIO
        let modify_ldt = findings.iter().find(|f| f.function == "modify_ldt").unwrap();
        assert!(modify_ldt.undocumented.contains(&12)); // ENOMEM
        let html = findings.iter().find(|f| f.function == "htmlParseDocument").unwrap();
        assert_eq!(html.undocumented, vec![1]);
        assert!(render_doc_mismatches(&findings).contains("close"));
    }

    #[test]
    fn figure2_is_valid_dot_with_multiple_blocks() {
        let dot = figure2_cfg_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.matches("label=").count() >= 2);
    }
}
