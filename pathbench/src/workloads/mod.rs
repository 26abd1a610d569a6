//! The six workloads.  Each owns its inputs, its op schedule and an oracle
//! that does not use the engine.

pub mod commits;
pub mod path_query;
pub mod program_load;
pub mod reactive_cascade;
pub mod tc_fixpoint;

use pathlog_core::analysis::Analysis;
use pathlog_core::engine::{stratify, Engine, EvalStats};
use pathlog_core::program::{validate_program, Program};
use pathlog_core::structure::{Structure, StructureStats};
use pathlog_parser::parse_program;

use crate::harness::{Counters, TraceView};
use crate::trace::Recorder;

/// Name and one-line reason of each workload, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "tc_fixpoint",
        "recursive rules over a generated tree: engine, planner and delta evaluation do the work, the parser almost none",
    ),
    (
        "program_load",
        "a fact-heavy .pl text loaded into an empty structure: parser, analysis and fact asserts dominate, the fixpoint is shallow",
    ),
    (
        "path_query",
        "read-only path queries over a 10000-employee structure: point lookups, filtered scans and full scans; no fixpoint, no store",
    ),
    (
        "commit_check",
        "guarded single-writer commits with no reader session: transaction, guard and constraint check, nothing published",
    ),
    (
        "serve_mixed",
        "the same commit cycle while a reader thread queries a pinned session per epoch: every commit publishes a snapshot",
    ),
    (
        "reactive_cascade",
        "production rules run to quiescence and ECA trigger cascades with a subscriber: the reactive crate, which the others bypass",
    ),
];

/// What one text -> answers op produced.
pub struct Loaded {
    pub program: Program,
    pub stats: EvalStats,
    pub analysis: Analysis,
    /// Answers of each query of the text, in order.
    pub answers: Vec<usize>,
}

/// The part of a text -> answers op that `tc_fixpoint` and `program_load`
/// share: parse `text`, install it into `structure`, answer its queries.
pub fn load_text(rec: &mut Recorder, engine: &Engine, structure: &mut Structure, text: &str) -> Result<Loaded, String> {
    let program = rec
        .span("parser.parse", || parse_program(text))
        .map_err(|e| e.to_string())?;
    let (stats, analysis) = rec
        .span("engine.install", || engine.install_checked(structure, &program))
        .map_err(|e| e.to_string())?;
    let answers = rec
        .span("semantics.query", || {
            program
                .queries
                .iter()
                .map(|q| engine.query(structure, q).map(|a| a.len()))
                .collect::<Result<Vec<usize>, _>>()
        })
        .map_err(|e| e.to_string())?;
    Ok(Loaded {
        program,
        stats,
        analysis,
        answers,
    })
}

/// After a text -> answers op, outside its timed region: add what it did
/// to the running counts and, in a traced round, re-run the public
/// analysis, validation and stratification entry points on the same
/// program (the install ran them inside, against `before`), so that their
/// time can be taken out of the install's.
pub fn account_load(
    rec: &mut Recorder,
    engine: &Engine,
    counts: &mut Counters,
    loaded: &Loaded,
    before: &Structure,
    after: &Structure,
) {
    let mut add = |key: &'static str, n: usize| *counts.entry(key).or_insert(0.0) += n as f64;
    add("bench.ops", 1);
    add(
        "parser.statements",
        loaded.program.rules.len() + loaded.program.queries.len(),
    );
    add("analysis.diagnostics", loaded.analysis.diagnostics.len());
    let stats = &loaded.stats;
    add("engine.strata", stats.strata);
    add("engine.iterations", stats.iterations);
    add("engine.firings", stats.firings);
    add("engine.derived", stats.derived());
    add("engine.virtual_objects", stats.virtual_objects);
    add("engine.delta_solves", stats.delta_solves);
    add("engine.full_solves", stats.full_solves);
    add("engine.rules_skipped", stats.rules_skipped);
    add("plan.plans_compiled", stats.plans_compiled);
    add("plan.replans", stats.replans);
    add("plan.seed_flips", stats.seed_flips);
    // Sizes of the structure the op leaves behind: the same after every op.
    let sizes = after.stats();
    counts.insert("structure.objects", sizes.objects as f64);
    counts.insert("structure.scalar_facts", sizes.scalar_facts as f64);
    counts.insert("structure.set_members", sizes.set_members as f64);
    counts.insert("structure.isa_edges", sizes.isa_edges as f64);
    if rec.tracing() {
        rec.span("analysis.analyze", || engine.analyze(Some(before), &loaded.program));
        if let Ok(infos) = rec.span("program.validate", || validate_program(&loaded.program)) {
            let _ = rec.span("engine.stratify", || stratify(&infos));
        }
    }
}

pub fn facts_of(stats: &StructureStats) -> f64 {
    (stats.scalar_facts + stats.set_members + stats.isa_edges) as f64
}

/// The layer times of a text -> answers op.  `engine.install` covers
/// analysis and evaluation; the probes of [`account_load`] are taken out of it.
pub fn program_layer_metrics(view: &TraceView<'_>, out: &mut Counters, text_bytes: f64) {
    let parse_ms = view.mean_ms("parser.parse");
    out.insert("parser.parse_ms", parse_ms);
    if parse_ms > 0.0 {
        out.insert("parser.mb_per_s", text_bytes / 1e6 / (parse_ms / 1e3));
    }
    let analyze_ms = view.mean_ms("analysis.analyze");
    let validate_ms = view.mean_ms("program.validate");
    let stratify_ms = view.mean_ms("engine.stratify");
    let load_ms = (view.mean_ms("engine.install") - analyze_ms).max(0.0);
    let fixpoint_ms = (load_ms - validate_ms - stratify_ms).max(0.0);
    out.insert("analysis.analyze_ms", analyze_ms);
    out.insert("program.validate_ms", validate_ms);
    out.insert("engine.stratify_ms", stratify_ms);
    out.insert("engine.load_ms", load_ms);
    out.insert("engine.fixpoint_ms", fixpoint_ms);
    out.insert("semantics.query_ms", view.mean_ms("semantics.query"));

    let ops = view.count("bench.ops").max(1.0);
    let derived_per_op = view.count("engine.derived") / ops;
    if derived_per_op > 0.0 && load_ms > 0.0 {
        out.insert("engine.us_per_derived", load_ms * 1e3 / derived_per_op);
        out.insert("engine.derived_per_s", derived_per_op / (load_ms / 1e3));
        out.insert(
            "engine.firings_per_derived",
            view.count("engine.firings") / view.count("engine.derived"),
        );
    }
}
