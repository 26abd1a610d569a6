//! Install cost against statement count: a generated company written as
//! PathLog text (one `name : class[a -> v; s ->> {..}].` fact per object,
//! then three subclass rules, the two virtual-object rules of Section 6 and
//! a query — the shape of pathbench's `program_load`), parsed once and
//! installed into an empty structure with `Engine::install_checked`.  The
//! ids carry the statement count, so time per statement is the reported
//! time over that count; an install that is linear in statements keeps it
//! flat from ~500 to ~8 000 statements.

use std::fmt::Write;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathlog_core::engine::Engine;
use pathlog_core::program::Program;
use pathlog_core::structure::Structure;
use pathlog_datagen::{generate_company, CompanyParams};
use pathlog_oodb::{AttrKind, Value};

const RULES: &str = "X : employee <- X : manager.\n\
X : person <- X : employee.\n\
X : vehicle <- X : automobile.\n\
X.address[street -> X.street; city -> X.city] <- X : employee.\n\
X.mentor[worksFor -> D] <- X : employee[worksFor -> D].\n\
?- X : employee.mentor[worksFor -> D].\n";

fn literal(value: &Value) -> String {
    match value {
        Value::Ref(s) | Value::Atom(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("{s:?}"),
    }
}

fn company_program(employees: usize) -> Program {
    let db = generate_company(&CompanyParams::scaled(employees));
    let mut text = String::new();
    for (_, obj) in db.objects() {
        let mut filters = Vec::new();
        for attr in db.schema().attrs() {
            match attr.kind {
                AttrKind::Scalar => {
                    if let Some(v) = db.get(&obj.name, &attr.name) {
                        filters.push(format!("{} -> {}", attr.name, literal(v)));
                    }
                }
                AttrKind::Set => {
                    if let Some(vs) = db.get_set(&obj.name, &attr.name).filter(|vs| !vs.is_empty()) {
                        let members: Vec<String> = vs.iter().map(literal).collect();
                        filters.push(format!("{} ->> {{{}}}", attr.name, members.join(", ")));
                    }
                }
            }
        }
        if filters.is_empty() {
            writeln!(text, "{} : {}.", obj.name, obj.class).unwrap();
        } else {
            writeln!(text, "{} : {}[{}].", obj.name, obj.class, filters.join("; ")).unwrap();
        }
    }
    text.push_str(RULES);
    pathlog_parser::parse_program(&text).expect("the generated text parses")
}

fn bench_program_install(c: &mut Criterion) {
    let mut group = c.benchmark_group("program_install");
    group.sample_size(20);
    let engine = Engine::new();
    for employees in [120usize, 490, 1980] {
        let program = company_program(employees);
        let statements = program.rules.len() + program.queries.len();
        let id = BenchmarkId::new("install_checked", format!("{statements}_statements"));
        group.bench_with_input(id, &program, |b, program| {
            b.iter(|| {
                let mut structure = Structure::new();
                engine
                    .install_checked(&mut structure, program)
                    .expect("the program installs")
                    .0
                    .derived()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_program_install);
criterion_main!(benches);
