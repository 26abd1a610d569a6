//! `pathbench`: the repository's benchmark.  See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how to read them.

#![forbid(unsafe_code)]

mod company;
mod harness;
mod json;
mod metrics;
mod report;
mod rng;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use harness::{Config, Outcome};
use json::Json;
use workloads::WORKLOADS;

const USAGE: &str = "usage:
  pathbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--json <file>] [--trace-out <file>]
  pathbench --all [--seed <n>] [--seconds <s>] [--quick] [--json <file>]
  pathbench --compare <before.json> <after.json>
  pathbench --describe";

/// Seconds one run measures unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 15.0;
const QUICK_SECONDS: f64 = 0.5;

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    describe: bool,
    compare: Option<(PathBuf, PathBuf)>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { QUICK_SECONDS } else { DEFAULT_SECONDS })
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        seed: 42,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--json" => out.json = Some(value()?.into()),
            "--trace-out" => out.trace_out = Some(value()?.into()),
            "--compare" => out.compare = Some((value()?.into(), value()?.into())),
            "--all" => out.all = true,
            "--describe" => out.describe = true,
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = [out.workload.is_some(), out.all, out.describe, out.compare.is_some()];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --workload, --all, --compare and --describe".into());
    }
    Ok(out)
}

fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    use workloads::*;
    match name {
        "tc_fixpoint" => harness::run::<tc_fixpoint::TcFixpoint>(cfg),
        "program_load" => harness::run::<program_load::ProgramLoad>(cfg),
        "path_query" => harness::run::<path_query::PathQuery>(cfg),
        "commit_check" => harness::run::<commits::CommitCheck>(cfg),
        "serve_mixed" => harness::run::<commits::ServeMixed>(cfg),
        "reactive_cascade" => harness::run::<reactive_cascade::ReactiveCascade>(cfg),
        other => Err(format!(
            "unknown workload {other}; the workloads are {}",
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
        )),
    }
}

/// The workload and metric lists of `BENCHMARK.json`, from the tables a run prints.
fn describe() -> Json {
    let named = |name: &str, unit: &str, higher: bool| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(if higher { "higher" } else { "lower" })),
        ]
    };
    Json::obj([
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = named(m.name, m.unit, m.higher_is_better);
                        fields.push(("bound", Json::Num(m.bound)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| Json::obj(named(m.name, m.unit, m.higher_is_better)))
                    .collect(),
            ),
        ),
    ])
}

fn spans_json(outcome: &Outcome) -> Json {
    Json::Arr(
        outcome
            .spans
            .iter()
            .map(|(round, s)| {
                Json::obj([
                    ("round", Json::Num(*round as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == trace::NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(s.parent as f64)
                        },
                    ),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect(),
    )
}

fn write(path: &PathBuf, text: String) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_report(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run of one workload.  `Ok(false)` when an output was wrong.
fn single(name: &str, args: &Args) -> Result<bool, String> {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        quick: args.quick,
    };
    let outcome = run_workload(name, &cfg)?;
    outcome.print_table();
    if let Some(path) = &args.json {
        let mut report = Json::obj([("meta", report::meta(args.seed, cfg.seconds, args.quick))]);
        report::merge_run(&mut report, outcome.workload, outcome.report());
        write(path, report.pretty())?;
    }
    if let Some(path) = &args.trace_out {
        write(path, spans_json(&outcome).render())?;
    }
    println!("{}", outcome.contract_line());
    Ok(outcome.failed == 0)
}

/// Every workload, measured and traced, each in a process of its own so
/// that set-up time and peak memory are that workload's alone.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = args.seconds();
    let mut report = Json::obj([("meta", report::meta(args.seed, seconds, args.quick))]);
    let mut correct = true;
    for (name, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            // The child's table goes to standard error; its result line is for the driver.
            child.stdout(Stdio::null());
            child.args(["--workload", name, "--trace", trace]);
            child.args(["--seed", &args.seed.to_string(), "--seconds", &seconds.to_string()]);
            if args.quick {
                child.arg("--quick");
            }
            let part = args.json.as_ref().map(|p| {
                let mut part = p.clone().into_os_string();
                part.push(format!(".{name}.{trace}.part"));
                PathBuf::from(part)
            });
            if let Some(part) = &part {
                child.arg("--json").arg(part);
            }
            let status = child.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            correct &= status.success();
            if let Some(part) = &part {
                if let Some(run) = read_report(part)?.get("workloads").and_then(|w| w.get(name)) {
                    report::merge_run(&mut report, name, run.clone());
                }
                std::fs::remove_file(part).map_err(|e| format!("{}: {e}", part.display()))?;
            }
        }
    }
    if let Some(path) = &args.json {
        write(path, report.pretty())?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pathbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((before, after)) = &args.compare {
        let compared = read_report(before).and_then(|b| report::compare(&b, &read_report(after)?));
        return match compared {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pathbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.describe {
        print!("{}", describe().pretty());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("pathbench: this is a debug build; measure with --release");
        return ExitCode::from(2);
    }
    let ran = match &args.workload {
        Some(name) => single(name, &args),
        None => all(&args),
    };
    match ran {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("pathbench: an output disagreed with its oracle");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("pathbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let a = args("--workload path_query --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("path_query"), 7, Some(10.0), true)
        );
        assert!(args("--all --quick --json out.json").unwrap().quick);
        assert!(args("--compare a.json b.json").unwrap().compare.is_some());
        assert!(args("--describe").unwrap().describe);
        for bad in [
            "",
            "--workload",
            "--workload x --all",
            "--workload x --trace 2",
            "--workload x --seconds 0",
            "--workload x --seed -1",
            "--compare a.json",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` is what the driver reads; `--describe` prints the
    /// tables a run reports from.
    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let ours = describe();
        for key in ["workloads", "end_to_end", "per_layer"] {
            assert_eq!(doc.get(key), ours.get(key), "{key}");
        }
        assert!(metrics::PER_LAYER.len() <= 128);
    }
}
