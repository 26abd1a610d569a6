//! The metric tables: what `BENCHMARK.json` lists is what a run prints.
//! `pathbench --describe` prints them in that file's form, and the test
//! `benchmark_json_lists_these_tables` (in `main.rs`) keeps the two equal.

/// An end-to-end metric: something a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these, and none can be 0.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("op_p50_us", "us", false, 0.25),
    e2e("op_p90_us", "us", false, 0.25),
    e2e("cpu_ms_per_op", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// A metric of one layer.  A workload that does not reach the layer reports 0.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Times are per call, from the traced rounds; counts are exact totals of
/// the counting round (a fixed number of schedule cycles).
pub const PER_LAYER: &[Layer] = &[
    lower("parser.parse_ms", "ms"),
    higher("parser.mb_per_s", "MB/s"),
    lower("parser.statements", "count"),
    lower("analysis.analyze_ms", "ms"),
    lower("analysis.diagnostics", "count"),
    lower("program.validate_ms", "ms"),
    lower("engine.stratify_ms", "ms"),
    lower("engine.load_ms", "ms"),
    lower("engine.fixpoint_ms", "ms"),
    lower("engine.us_per_derived", "us"),
    higher("engine.derived_per_s", "1/s"),
    lower("engine.strata", "count"),
    lower("engine.iterations", "count"),
    lower("engine.firings", "count"),
    lower("engine.derived", "count"),
    lower("engine.virtual_objects", "count"),
    lower("engine.delta_solves", "count"),
    lower("engine.full_solves", "count"),
    higher("engine.rules_skipped", "count"),
    lower("engine.firings_per_derived", "ratio"),
    lower("plan.plans_compiled", "count"),
    lower("plan.replans", "count"),
    lower("plan.seed_flips", "count"),
    lower("semantics.point_p50_us", "us"),
    lower("semantics.filter_scan_p50_us", "us"),
    lower("semantics.full_scan_p50_ms", "ms"),
    higher("semantics.answers_per_s", "1/s"),
    lower("semantics.query_ms", "ms"),
    lower("semantics.tolerant_p50_us", "us"),
    lower("structure.build_ms", "ms"),
    lower("structure.clone_us", "us"),
    lower("structure.objects", "count"),
    lower("structure.scalar_facts", "count"),
    lower("structure.set_members", "count"),
    lower("structure.isa_edges", "count"),
    lower("structure.rss_bytes_per_fact", "B"),
    lower("constraints.install_ms", "ms"),
    lower("constraints.checks", "count"),
    lower("constraints.full_checks", "count"),
    lower("constraints.full_check_share", "ratio"),
    lower("constraints.condition_solves", "count"),
    higher("constraints.constraints_skipped", "count"),
    higher("constraints.retraction_skips", "count"),
    lower("oodb.stage_us", "us"),
    lower("oodb.commit_call_us", "us"),
    lower("oodb.commit_add_p50_us", "us"),
    lower("oodb.commit_set_p50_us", "us"),
    lower("oodb.commit_remove_p50_us", "us"),
    lower("oodb.commit_reject_p50_us", "us"),
    lower("oodb.quarantined", "count"),
    lower("oodb.session_begin_us", "us"),
    lower("snapshot.epochs_published", "count"),
    lower("snapshot.snapshots_pinned", "count"),
    higher("snapshot.snapshots_reclaimed", "count"),
    lower("snapshot.pinned_after", "count"),
    lower("snapshot.max_epoch_lag", "count"),
    lower("reactive.production_run_ms", "ms"),
    lower("reactive.production_firings", "count"),
    lower("reactive.production_cycles", "count"),
    lower("reactive.condition_solves", "count"),
    higher("reactive.condition_skips", "count"),
    lower("reactive.us_per_firing", "us"),
    lower("reactive.update_p50_us", "us"),
    lower("reactive.active_firings", "count"),
    lower("reactive.cascade_depth_max", "count"),
    lower("reactive.notifications", "count"),
    lower("bench.self_us_per_op", "us"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.timer_ns", "ns"),
    higher("bench.speed_index", "ratio"),
    lower("bench.speed_spread_pct", "%"),
    lower("bench.count_ops", "count"),
    higher("bench.samples.op", "count"),
    lower("bench.round_spread_pct.ops_per_s", "%"),
    lower("bench.round_spread_pct.op_p50_us", "%"),
    lower("bench.round_spread_pct.op_p90_us", "%"),
    lower("bench.round_spread_pct.cpu_ms_per_op", "%"),
];
