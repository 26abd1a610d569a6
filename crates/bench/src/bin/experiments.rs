//! Print the experiment tables recorded in `EXPERIMENTS.md`.
//!
//! For every experiment the binary reports the answer sizes (which must agree
//! across PathLog and the baselines) and wall-clock timings of a few
//! repetitions.  Criterion (`cargo bench`) produces the statistically sound
//! numbers; this binary exists so the full table can be regenerated in
//! seconds with `cargo run --release -p pathlog_bench --bin experiments`.
//!
//! With `--json <path>` the tables are additionally written as a
//! machine-readable JSON document (`BENCH_results.json` by convention), so
//! the perf trajectory can be tracked across pull requests and archived by
//! CI.

use std::time::Instant;

use pathlog_baseline::RelationalDb;
use pathlog_bench::{
    colours, columnar_factorized, constraints_commit, flogic_translation, join_planning, manager_query, parsing,
    parts_explosion, reactive_rules, rss, serving, sql_frontend, transitive_closure, two_dimensional, virtual_objects,
    workloads, Row,
};

fn time_ms(mut f: impl FnMut() -> usize) -> (usize, f64) {
    // warm up once, then take the best of three runs.
    let result = f();
    let mut best = f64::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        let r = f();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r, result, "non-deterministic experiment result");
        best = best.min(elapsed);
    }
    (result, best)
}

/// All experiment tables of one run, accumulated for printing and JSON.
#[derive(Default)]
struct Report {
    tables: Vec<(String, Vec<Row>)>,
    /// Per-arm peak-RSS increments in kilobytes, recorded into the JSON
    /// meta block (0 on platforms without `/proc` support).
    peak_rss_kb: Vec<(String, u64)>,
}

/// The number of hardware threads the host exposes.  Recorded in the JSON
/// meta block so committed BENCH results are interpretable: on a 1-core
/// container E22's reader threads time-slice with the writer, and a reader
/// must be able to tell that from the document alone.
fn detected_cores() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

impl Report {
    fn table(&mut self, title: &str, rows: Vec<Row>) {
        println!("\n== {title} ==");
        for row in &rows {
            println!("{row}");
        }
        self.tables.push((title.to_string(), rows));
    }

    /// Record one arm's peak-RSS increment for the JSON meta block.
    fn record_peak_rss(&mut self, arm: &str, kb: u64) {
        self.peak_rss_kb.push((arm.to_string(), kb));
    }

    /// Serialise as JSON.  The values are answer sizes and millisecond
    /// timings; names are plain ASCII, so escaping quotes and backslashes
    /// suffices.
    fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut rss = String::from("{");
        for (i, (arm, kb)) in self.peak_rss_kb.iter().enumerate() {
            if i > 0 {
                rss.push_str(", ");
            }
            rss.push_str(&format!("\"{}\": {kb}", esc(arm)));
        }
        rss.push('}');
        let mut out = format!(
            "{{\n  \"meta\": {{\"detected_cores\": {}, \"peak_rss_kb\": {rss}}},\n  \"experiments\": [\n",
            detected_cores()
        );
        for (t, (title, rows)) in self.tables.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"name\": \"{}\",\n      \"rows\": [\n",
                esc(title)
            ));
            for (i, row) in rows.iter().enumerate() {
                out.push_str(&format!("        {{\"scale\": \"{}\", \"values\": {{", esc(&row.scale)));
                for (j, (name, value)) in row.values.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {}", esc(name), format_number(*value)));
                }
                out.push_str("}}");
                out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
            }
            out.push_str("      ]\n    }");
            out.push_str(if t + 1 < self.tables.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON-safe number formatting (finite floats only; fixed precision keeps
/// diffs readable).
fn format_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn main() {
    let args = parse_args();
    let mut report = Report::default();
    // E18/E19/E20/E21/E22 are the cross-check gates the CI matrix arms
    // invoke in isolation via `--only e18|...|e22`; a full run includes all
    // of them.
    let wants = |name: &str| args.only.is_none() || args.only.as_deref() == Some(name);
    if args.only.is_none() {
        all_experiments(&mut report);
    }
    if wants("e18") {
        e18_reactive_executor(&mut report);
    }
    if wants("e19") {
        e19_columnar_factorized(&mut report, args.scale);
    }
    if wants("e20") {
        e20_constraint_commits(&mut report);
    }
    if wants("e21") {
        e21_join_planning(&mut report);
    }
    if wants("e22") {
        e22_snapshot_serving(&mut report);
    }
    match args.only.as_deref() {
        None => println!("\nAll experiments finished; answers agreed across PathLog and the baselines."),
        Some("e19") => println!(
            "\nE19 cross-checks passed: the factorized enumeration matched the materialized tuples \
             answer-for-answer."
        ),
        Some("e20") => println!(
            "\nE20 cross-checks passed: incremental check-on-commit rejected the same violations in \
             the same order as the forced full re-check while solving strictly fewer conditions, \
             and quarantined commits degraded (tainted) answers instead of dropping them."
        ),
        Some("e21") => println!(
            "\nE21 cross-checks passed: the planned run was canonical-dump-identical to the naive \
             oracle with identical model counters, and the planner counters were positive."
        ),
        Some("e22") => println!(
            "\nE22 cross-checks passed: every reader session's pinned canonical dump was \
             bit-identical to the sequential oracle's dump for that epoch at every session count, \
             and every retained epoch was reclaimed once its last session dropped."
        ),
        Some(_) => println!(
            "\nE18 cross-checks passed: delta-gated matching fired what full re-matching fired \
             (firing traces, canonical dumps) while solving strictly fewer conditions."
        ),
    }
    println!("(detected cores: {})", detected_cores());
    if detected_cores() <= 1 {
        println!(
            "CAVEAT: this host exposes a single hardware thread — E22's reader threads share it \
             with the writer, so its latencies measure time-slicing, not concurrency."
        );
    }
    if let Some(path) = args.json {
        // Guard the committed full-results document: a partial run writes
        // only the tables it produced, which must not clobber
        // BENCH_results.json by accident.
        if args.only.is_some() && path.ends_with("BENCH_results.json") {
            eprintln!("refusing to overwrite {path} with a partial (--only) run; choose another --json path");
            std::process::exit(2);
        }
        std::fs::write(&path, report.to_json()).expect("write JSON results");
        println!("Wrote machine-readable results to {path}");
    }
}

/// E1–E15: the full answer-size + timing table set.
fn all_experiments(report: &mut Report) {
    let scales = [200usize, 1_000, 5_000];

    // E1 — colours of employees' automobiles
    let mut rows = Vec::new();
    for &n in &scales {
        let s = workloads::company(n);
        let db = RelationalDb::from_structure(&s);
        let (answer, pathlog_ms) = time_ms(|| colours::pathlog(&s));
        let (answer1, onedim_ms) = time_ms(|| colours::onedim(&s));
        let (answer2, relational_ms) = time_ms(|| colours::relational(&db));
        assert_eq!(answer, answer1);
        assert_eq!(answer, answer2);
        rows.push(Row {
            scale: format!("employees={n}"),
            values: vec![
                ("answers".into(), answer as f64),
                ("pathlog_ms".into(), pathlog_ms),
                ("onedim_ms".into(), onedim_ms),
                ("relational_ms".into(), relational_ms),
            ],
        });
    }
    report.table("E1: colours of employees' automobiles (1.1-1.3)", rows);

    // E2 — two-dimensional reference vs conjunction of paths
    let mut rows = Vec::new();
    for &n in &scales {
        let s = workloads::company(n);
        let db = RelationalDb::from_structure(&s);
        let (_, pathlog_ms) = time_ms(|| two_dimensional::pathlog(&s));
        let (_, onedim_ms) = time_ms(|| two_dimensional::onedim(&s));
        let (answers, relational_ms) = time_ms(|| two_dimensional::relational(&s, &db));
        rows.push(Row {
            scale: format!("employees={n}"),
            values: vec![
                ("colours".into(), answers as f64),
                ("pathlog_ms".into(), pathlog_ms),
                ("onedim_ms".into(), onedim_ms),
                ("relational_ms".into(), relational_ms),
            ],
        });
    }
    report.table(
        "E2: two-dimensional reference (2.1) vs conjunction of paths (1.4)",
        rows,
    );

    // E3 — manager query
    let mut rows = Vec::new();
    for &n in &scales {
        let s = workloads::company(n);
        let db = RelationalDb::from_structure(&s);
        let (answer, pathlog_ms) = time_ms(|| manager_query::pathlog(&s));
        let (answer1, onedim_ms) = time_ms(|| manager_query::onedim(&s));
        let (answer2, relational_ms) = time_ms(|| manager_query::relational(&s, &db));
        assert_eq!(answer, answer1);
        assert_eq!(answer, answer2);
        rows.push(Row {
            scale: format!("employees={n}"),
            values: vec![
                ("managers".into(), answer as f64),
                ("pathlog_ms".into(), pathlog_ms),
                ("onedim_ms".into(), onedim_ms),
                ("relational_ms".into(), relational_ms),
            ],
        });
    }
    report.table("E3: manager query (Section 2)", rows);

    // E4/E6/E9 — virtual objects vs views
    let mut rows = Vec::new();
    for &n in &scales {
        let s = workloads::company(n);
        let (addresses, rule_ms) = time_ms(|| virtual_objects::pathlog_addresses(&s));
        let (view_objs, view_ms) = time_ms(|| virtual_objects::xsql_view_addresses(&s));
        let (_, boss_rule_ms) = time_ms(|| virtual_objects::pathlog_virtual_bosses(&s));
        let (_, boss_view_ms) = time_ms(|| virtual_objects::xsql_employee_boss_view(&s));
        assert_eq!(addresses, view_objs);
        rows.push(Row {
            scale: format!("employees={n}"),
            values: vec![
                ("virtuals".into(), addresses as f64),
                ("address_rule_ms".into(), rule_ms),
                ("address_view_ms".into(), view_ms),
                ("boss_rule_ms".into(), boss_rule_ms),
                ("boss_view_ms".into(), boss_view_ms),
            ],
        });
    }
    report.table("E4/E6/E9: virtual objects (2.4, 6.1) vs XSQL views (6.3)", rows);

    // E7 — transitive closure.
    let mut rows = Vec::new();
    for &(depth, fanout) in &[(4usize, 2usize), (6, 2), (8, 2), (5, 3)] {
        let s = workloads::genealogy(depth, fanout);
        let db = RelationalDb::from_structure(&s);
        let (pairs, desc_ms) = time_ms(|| transitive_closure::pathlog_desc(&s));
        let (pairs1, generic_ms) = time_ms(|| transitive_closure::pathlog_generic(&s));
        let (pairs2, rel_ms) = time_ms(|| transitive_closure::relational(&db));
        assert_eq!(pairs, pairs1);
        assert_eq!(pairs, pairs2);
        rows.push(Row {
            scale: format!("depth={depth} fanout={fanout}"),
            values: vec![
                ("closure_pairs".into(), pairs as f64),
                ("desc_rules_ms".into(), desc_ms),
                ("generic_tc_ms".into(), generic_ms),
                ("relational_ms".into(), rel_ms),
            ],
        });
    }
    report.table("E7: transitive closure (6.4, kids.tc) vs relational semi-naive", rows);

    // E10 — parser
    let (count, parse_ms) = time_ms(parsing::parse_all);
    report.table(
        "E10: parser over the paper's expressions",
        vec![Row {
            scale: format!("expressions={count}"),
            values: vec![("parse_all_ms".into(), parse_ms)],
        }],
    );

    // E11 — direct semantics vs F-logic translation
    let mut rows = Vec::new();
    for &n in &scales {
        let s = workloads::company(n);
        let (answers, direct_ms) = time_ms(|| flogic_translation::direct(&s));
        let (answers1, translated_ms) = time_ms(|| flogic_translation::translated(&s));
        assert_eq!(answers, answers1);
        rows.push(Row {
            scale: format!("employees={n}"),
            values: vec![
                ("answers".into(), answers as f64),
                ("direct_ms".into(), direct_ms),
                ("translated_ms".into(), translated_ms),
                ("flat_atoms".into(), flogic_translation::translation_atoms() as f64),
            ],
        });
    }
    report.table(
        "E11: direct semantics vs F-logic translation (Section 2 contrast)",
        rows,
    );

    // E12 — object-SQL frontend vs native PathLog
    let mut rows = Vec::new();
    let catalog = sql_frontend::catalog();
    for &n in &scales {
        let s = workloads::company(n);
        let (answers, sql_ms) = time_ms(|| sql_frontend::sql(&s, &catalog));
        let (answers1, native_ms) = time_ms(|| sql_frontend::native(&s));
        assert_eq!(answers, answers1);
        rows.push(Row {
            scale: format!("employees={n}"),
            values: vec![
                ("colours".into(), answers as f64),
                ("sql_ms".into(), sql_ms),
                ("native_pathlog_ms".into(), native_ms),
            ],
        });
    }
    report.table("E12: object-SQL frontend (1.4) vs native PathLog", rows);

    // E13 — production rules and active triggers
    let mut rows = Vec::new();
    for &n in &[100usize, 500, 2_000] {
        let s = workloads::company(n);
        let (firings, production_ms) = time_ms(|| reactive_rules::production_minimum_wage(&s));
        let (cascade, active_ms) = time_ms(|| reactive_rules::active_salary_cascade(&s, 50));
        rows.push(Row {
            scale: format!("employees={n}"),
            values: vec![
                ("production_firings".into(), firings as f64),
                ("production_ms".into(), production_ms),
                ("cascade_firings".into(), cascade as f64),
                ("active_50_updates_ms".into(), active_ms),
            ],
        });
    }
    report.table("E13: production rules / active triggers (Section 7 outlook)", rows);

    // E14 — parts explosion (transitive closure on a DAG)
    let mut rows = Vec::new();
    for &depth in &[4usize, 6, 8] {
        let s = workloads::bom(depth);
        let db = RelationalDb::from_structure(&s);
        let (members, pathlog_ms) = time_ms(|| parts_explosion::pathlog(&s));
        let (members1, rel_ms) = time_ms(|| parts_explosion::relational(&db));
        assert_eq!(members, members1);
        rows.push(Row {
            scale: format!("depth={depth}"),
            values: vec![
                ("closure_pairs".into(), members as f64),
                ("pathlog_ms".into(), pathlog_ms),
                ("relational_ms".into(), rel_ms),
            ],
        });
    }
    report.table("E14: parts explosion closure (bill-of-materials DAG)", rows);

    // E15 — the semi-naive ablation (delta_driven on/off) on the deepest
    // recursive workloads, matching the `ablation_delta_driven` bench group.
    let mut rows = Vec::new();
    for &(depth, fanout) in &[(8usize, 2usize), (10, 2)] {
        let s = workloads::genealogy(depth, fanout);
        let program =
            pathlog_parser::parse_program(transitive_closure::ABLATION_RULES).expect("ablation program parses");
        let run = |delta: bool| {
            let mut s2 = s.clone();
            let engine = pathlog_core::engine::Engine::with_options(pathlog_core::engine::EvalOptions {
                delta_driven: delta,
                ..Default::default()
            });
            engine
                .load_program(&mut s2, &program)
                .expect("rules evaluate")
                .set_members
        };
        let (members_on, on_ms) = time_ms(|| run(true));
        let (members_off, off_ms) = time_ms(|| run(false));
        assert_eq!(members_on, members_off, "naive and semi-naive must agree");
        rows.push(Row {
            scale: format!("depth={depth} fanout={fanout}"),
            values: vec![
                // desc pairs plus the summary rule's copies — not the bare
                // closure size E7 reports.
                ("derived_set_members".into(), members_on as f64),
                ("delta_on_ms".into(), on_ms),
                ("delta_off_ms".into(), off_ms),
                ("speedup".into(), off_ms / on_ms),
            ],
        });
    }
    report.table("E15: ablation_delta_driven (semi-naive vs naive evaluation)", rows);
}

/// E18 — reactive evaluation: the production classification workload
/// (delta-gated vs full re-match) and the active-store fan-out workload
/// (mutations/sec).  The production arms are cross-checked — firing traces
/// and canonical dumps must be identical, and delta gating must solve
/// strictly fewer conditions than full re-matching (counter-asserted, not
/// just timed) — so this table doubles as the CI gate for gated matching.
fn e18_reactive_executor(report: &mut Report) {
    use pathlog_reactive::ProductionOptions;
    let mut rows = Vec::new();
    for &n in &[100usize, 300] {
        let s = workloads::company(n);

        // --- Production arm: the delta-gated reference.
        let (gated_stats, gated_trace, gated_dump) =
            reactive_rules::production_classify(&s, ProductionOptions::default());
        let (_, gated_ms) = time_ms(|| {
            reactive_rules::production_classify(&s, ProductionOptions::default())
                .0
                .firings
        });
        // Full re-matching ablation: identical run, strictly more solves.
        let full_options = ProductionOptions {
            delta_gated: false,
            ..ProductionOptions::default()
        };
        let (full_stats, full_trace, full_dump) = reactive_rules::production_classify(&s, full_options);
        let (_, full_ms) = time_ms(|| reactive_rules::production_classify(&s, full_options).0.firings);
        assert_eq!(full_trace, gated_trace, "E18: full re-match must fire identically");
        assert_eq!(
            full_dump, gated_dump,
            "E18: full re-match must reach the same structure"
        );
        assert_eq!(full_stats.firings, gated_stats.firings);
        assert!(
            gated_stats.condition_solves < full_stats.condition_solves,
            "E18: delta gating must reduce condition solves ({} vs {})",
            gated_stats.condition_solves,
            full_stats.condition_solves
        );

        // --- Active arm: 3 external mutations per update.
        let updates = 50usize;
        let (active_stats, _) = reactive_rules::active_fanout_updates(&s, updates);
        let (_, active_ms) = time_ms(|| reactive_rules::active_fanout_updates(&s, updates).0.firings);
        rows.push(Row {
            scale: format!("employees={n}"),
            values: vec![
                ("production_firings".into(), gated_stats.firings as f64),
                ("gated_condition_solves".into(), gated_stats.condition_solves as f64),
                ("full_condition_solves".into(), full_stats.condition_solves as f64),
                ("production_gated_ms".into(), gated_ms),
                ("production_full_rematch_ms".into(), full_ms),
                ("active_firings".into(), active_stats.firings as f64),
                (
                    "active_mutations_per_sec".into(),
                    (updates as f64 * 3.0) / (active_ms / 1e3),
                ),
            ],
        });
    }
    report.table(
        "E18: reactive evaluation (delta-gated vs full production re-matching + active fan-out)",
        rows,
    );
}

/// E19 — columnar fact storage + factorized path answers.  The memory gate
/// of the columnar refactor: on the depth-10 `desc` closure (at the datagen
/// scale selected with `--scale`) the factorized answer DAG of `X..desc` must enumerate answer-for-answer
/// identically to the materialized tuples, and the DAG's peak-RSS increment
/// is reported against the tuple representation's (factorized measured
/// first, so allocator reuse biases the comparison *against* it).  The
/// second table tracks representation size across the E7 depth sweep: DAG
/// nodes must grow sub-linearly in the tuple count.
fn e19_columnar_factorized(report: &mut Report, scale: usize) {
    let tenfold = scale >= 10;

    // --- Memory arm: depth-10 transitive closure.
    let s = workloads::genealogy_at_scale(10, 2, tenfold);
    let closed = columnar_factorized::close(&s);
    let (fact, fact_kb) = rss::measure(|| columnar_factorized::factorized(&closed));
    let (tuples, tuples_kb) = rss::measure(|| columnar_factorized::materialized(&closed));
    assert!(fact.is_factorized(), "E19: X..desc must take the factorized path");
    assert_eq!(fact.count(), tuples.len() as u64, "E19: answer counts must match");
    assert!(
        columnar_factorized::enumeration_matches(&fact, &tuples),
        "E19: factorized enumeration must be bit-identical to the materialized tuples"
    );
    report.record_peak_rss(&format!("e19_factorized_scale{scale}"), fact_kb);
    report.record_peak_rss(&format!("e19_materialized_scale{scale}"), tuples_kb);
    // The headline claim, asserted only when the platform measured both
    // arms meaningfully (>= 64 kB increments; /proc may be unavailable).
    if fact_kb >= 64 && tuples_kb >= 64 {
        assert!(
            tuples_kb >= 2 * fact_kb,
            "E19: factorized answers must at least halve the peak-RSS increment ({tuples_kb} kB vs {fact_kb} kB)"
        );
    }
    let (_, fact_ms) = time_ms(|| columnar_factorized::factorized(&closed).node_count());
    let (_, mat_ms) = time_ms(|| columnar_factorized::materialized(&closed).len());
    report.table(
        "E19: columnar + factorized answers (depth-10 closure memory arm)",
        vec![Row {
            scale: format!("depth=10 fanout=2 scale={scale}"),
            values: vec![
                ("answers".into(), tuples.len() as f64),
                ("dag_nodes".into(), fact.node_count() as f64),
                ("materialized_peak_rss_kb".into(), tuples_kb as f64),
                ("factorized_peak_rss_kb".into(), fact_kb as f64),
                ("materialized_ms".into(), mat_ms),
                ("factorized_ms".into(), fact_ms),
            ],
        }],
    );

    // --- Representation-size sweep over the E7 depths.
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for &depth in &[4usize, 6, 8, 10] {
        let s = workloads::genealogy(depth, 2);
        let closed = columnar_factorized::close(&s);
        let fact = columnar_factorized::factorized(&closed);
        let tuples = columnar_factorized::materialized(&closed);
        assert!(
            columnar_factorized::enumeration_matches(&fact, &tuples),
            "E19 depth={depth}: factorized enumeration must match the tuples"
        );
        let nodes = fact.node_count();
        assert!(
            nodes < tuples.len(),
            "E19 depth={depth}: the DAG must be smaller than the tuple list"
        );
        let ratio = nodes as f64 / tuples.len() as f64;
        ratios.push(ratio);
        rows.push(Row {
            scale: format!("depth={depth} fanout=2"),
            values: vec![
                ("answers".into(), tuples.len() as f64),
                ("dag_nodes".into(), nodes as f64),
                ("nodes_per_answer".into(), ratio),
            ],
        });
    }
    assert!(
        ratios.last().unwrap() < ratios.first().unwrap(),
        "E19: DAG nodes must grow sub-linearly in the answer count across the depth sweep"
    );
    report.table("E19b: factorized representation size across the E7 depth sweep", rows);
}

/// E20 — check-on-commit integrity constraints: guarded transactions over
/// the datagen company store.  The incremental arm re-solves only the
/// constraints whose read keys intersect the commit's delta; the full arm
/// (the guard installed anew before every transaction, counters summed over
/// the installs) re-solves everything.  Both arms must reject the same
/// violations in the same order while the incremental arm performs strictly
/// fewer condition solves (counter-asserted — the CI gate).  The quarantine
/// arm commits pay cuts below the wage floor under
/// `ConstraintPolicy::Quarantine` and serves the salary query tolerantly:
/// every classical answer is still served, tainted answers are annotated
/// rather than dropped.
fn e20_constraint_commits(report: &mut Report) {
    let mut rows = Vec::new();
    for &n in &[100usize, 300] {
        let updates = 100usize;

        let inc = constraints_commit::run_commits(n, updates, false);
        let (_, inc_ms) = time_ms(|| constraints_commit::run_commits(n, updates, false).committed);
        let full = constraints_commit::run_commits(n, updates, true);
        let (_, full_ms) = time_ms(|| constraints_commit::run_commits(n, updates, true).committed);
        assert_eq!(
            inc.rejections, full.rejections,
            "E20: incremental and full re-check must reject the same violations in the same order"
        );
        assert_eq!(
            inc.committed, full.committed,
            "E20: the arms must commit the same batches"
        );
        assert!(inc.rejected > 0, "E20: the workload must exercise rejection");
        assert!(
            inc.stats.condition_solves < full.stats.condition_solves,
            "E20: incremental checking must solve strictly fewer conditions ({} vs {})",
            inc.stats.condition_solves,
            full.stats.condition_solves
        );
        assert!(
            inc.stats.constraints_skipped > 0,
            "E20: delta gating must skip unaffected constraints"
        );

        // Quarantine arm: pay cuts commit tagged; answers degrade, not drop.
        let cuts = 10usize;
        let q = constraints_commit::run_quarantine(n, cuts);
        assert!(q.quarantined >= cuts, "E20: every pay cut must tag at least one fact");
        assert!(q.tainted > 0, "E20: quarantined salaries must taint their answers");
        assert_eq!(
            q.tainted + q.clean,
            q.classical,
            "E20: tolerant evaluation must serve every classical answer"
        );
        let (_, tolerant_ms) = time_ms(|| constraints_commit::run_quarantine(n, cuts).tainted);

        rows.push(Row {
            scale: format!("employees={n} commits={updates}"),
            values: vec![
                ("committed".into(), inc.committed as f64),
                ("rejected".into(), inc.rejected as f64),
                ("baseline_violations".into(), inc.baseline_violations as f64),
                ("incremental_condition_solves".into(), inc.stats.condition_solves as f64),
                ("full_condition_solves".into(), full.stats.condition_solves as f64),
                ("constraints_skipped".into(), inc.stats.constraints_skipped as f64),
                ("incremental_ms".into(), inc_ms),
                ("full_recheck_ms".into(), full_ms),
                ("quarantined_facts".into(), q.quarantined as f64),
                ("tainted_answers".into(), q.tainted as f64),
                ("clean_answers".into(), q.clean as f64),
                ("quarantine_run_ms".into(), tolerant_ms),
            ],
        });
    }
    report.table(
        "E20: check-on-commit constraints (incremental vs full re-check + quarantine degradation)",
        rows,
    );
}

/// E21 — the cost-based join planner: the filtered-closure workload (a
/// recursive closure plus a 3-literal join whose written order is
/// deliberately bad).  The run is counter-asserted, not just timed: the
/// model must be bit-identical (canonical dump) to the naive oracle
/// (`delta_driven: false`) with the same model counters, and the planner
/// must have compiled the rules, so this table doubles as the CI gate for
/// planned evaluation.
fn e21_join_planning(report: &mut Report) {
    use pathlog_core::engine::EvalOptions;

    let mut rows = Vec::new();
    for &(depth, fanout) in &[(6usize, 2usize), (8, 2), (5, 3)] {
        let s = join_planning::workload(depth, fanout);
        let (oracle_stats, oracle_dump) = join_planning::run(
            &s,
            EvalOptions {
                delta_driven: false,
                ..EvalOptions::default()
            },
        );
        let (stats, dump) = join_planning::run(&s, EvalOptions::default());
        assert_eq!(
            dump, oracle_dump,
            "E21: the model must be bit-identical to the naive oracle's"
        );
        assert_eq!(
            stats.model_counters(),
            oracle_stats.model_counters(),
            "E21: model counters must match the naive oracle's"
        );
        assert!(stats.plans_compiled > 0, "E21: the planner must compile rules");
        let (_, ms) = time_ms(|| join_planning::run(&s, EvalOptions::default()).0.set_members);
        rows.push(Row {
            scale: format!("depth={depth} fanout={fanout}"),
            values: vec![
                ("derived_set_members".into(), oracle_stats.set_members as f64),
                ("planned_ms".into(), ms),
                ("plans_compiled".into(), stats.plans_compiled as f64),
                ("replans".into(), stats.replans as f64),
                ("seed_flips".into(), stats.seed_flips as f64),
            ],
        });
    }
    report.table("E21: cost-based join planning (filtered closure, oracle-checked)", rows);
}

/// E22 — the MVCC snapshot serving layer (PR 10): concurrent pinned-snapshot
/// reader sessions over the single-writer guarded commit pipeline, at 4 and
/// 16 sessions.  Every arm is oracle-checked, not just
/// timed: each reader reports its pinned epoch's canonical dump, and every
/// observed `(epoch, dump)` pair must be bit-identical to what a sequential
/// replay of the identical history records — snapshot isolation holds even
/// while the writer commits epochs ahead of the pinned readers.  The
/// registry counters close the loop: one publish per commit plus the
/// bootstrap, one pin per read, zero epochs retained after the run.
fn e22_snapshot_serving(report: &mut Report) {
    let employees = 60usize;
    let commits = 40usize;
    let oracle = serving::sequential_oracle(employees, commits);
    let mut rows = Vec::new();
    for &sessions in &[4usize, 16] {
        let params = serving::ServingParams {
            employees,
            sessions,
            commits,
        };
        let run = serving::run(&params);
        assert_eq!(run.committed + run.rejected, commits);
        assert!(run.rejected > 0, "E22: the schedule must exercise rejected commits");
        assert_eq!(
            run.dumps.len(),
            run.committed + 1,
            "E22: readers must observe every published epoch"
        );
        for (epoch, dump) in &run.dumps {
            assert_eq!(
                oracle.get(epoch),
                Some(dump),
                "E22: epoch {epoch} dump diverged from the sequential oracle (sessions={sessions})"
            );
        }
        let reads_per_epoch = run.reads as f64 / run.stats.epochs_published as f64;
        let (_, serve_ms) = time_ms(|| serving::run(&params).reads);
        rows.push(Row {
            scale: format!("sessions={sessions}"),
            values: vec![
                ("reads".into(), run.reads as f64),
                ("epochs_published".into(), run.stats.epochs_published as f64),
                ("reads_per_epoch".into(), reads_per_epoch),
                ("read_p50_us".into(), serving::percentile_us(&run.read_us, 50.0) as f64),
                ("read_p95_us".into(), serving::percentile_us(&run.read_us, 95.0) as f64),
                ("read_p99_us".into(), serving::percentile_us(&run.read_us, 99.0) as f64),
                (
                    "commit_p50_us".into(),
                    serving::percentile_us(&run.commit_us, 50.0) as f64,
                ),
                (
                    "commit_p99_us".into(),
                    serving::percentile_us(&run.commit_us, 99.0) as f64,
                ),
                ("snapshots_pinned".into(), run.stats.snapshots_pinned as f64),
                ("snapshots_reclaimed".into(), run.stats.snapshots_reclaimed as f64),
                ("pinned_after".into(), run.pinned_after as f64),
                ("run_ms".into(), serve_ms),
            ],
        });
    }
    report.table("E22: MVCC snapshot serving (reader sessions, oracle-checked)", rows);
}

/// Command-line arguments: `[--json <path>] [--only e18|e19|e20|e21|e22] [--scale 1|10]`.
struct Args {
    json: Option<String>,
    only: Option<String>,
    /// Datagen scale multiplier: 1 uses the default presets, 10 the
    /// `scaled10` presets (E19's large-scale memory arm).
    scale: usize,
}

/// Parse the command line (exits with usage on anything unexpected).
fn parse_args() -> Args {
    let mut args = Args {
        json: None,
        only: None,
        scale: 1,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        match (flag.as_str(), raw.next()) {
            ("--json", Some(path)) => args.json = Some(path),
            ("--only", Some(table)) if ["e18", "e19", "e20", "e21", "e22"].contains(&table.as_str()) => {
                args.only = Some(table)
            }
            ("--scale", Some(n)) if n == "1" || n == "10" => args.scale = n.parse().expect("validated"),
            _ => {
                eprintln!("usage: experiments [--json <path>] [--only e18|e19|e20|e21|e22] [--scale 1|10]");
                std::process::exit(2);
            }
        }
    }
    args
}
