//! `program_load`: a fact-heavy `.pl` text loaded into an empty structure.
//!
//! Each text is a generated company written out as one molecule per object,
//! followed by three subclass rules, the two virtual-object rules of
//! Section 6 and one query.  One op parses a text, installs it and answers
//! the query.  Three texts (three generator seeds derived from `--seed`)
//! take turns, so that no op meets the previous op's names.

use std::fmt::Write;

use pathlog_core::engine::Engine;
use pathlog_core::structure::Structure;
use pathlog_oodb::Value;

use super::{account_load, load_text, program_layer_metrics};
use crate::company::{generate, Company};
use crate::harness::{Counters, TraceView, Workload};
use crate::trace::Recorder;

const RULES: &str = "X : employee <- X : manager.\n\
X : person <- X : employee.\n\
X : vehicle <- X : automobile.\n\
X.address[street -> X.street; city -> X.city] <- X : employee.\n\
X.mentor[worksFor -> D] <- X : employee[worksFor -> D].\n\
?- X : employee.mentor[worksFor -> D].\n";
const RULE_STATEMENTS: usize = 6;

fn literal(value: &Value) -> String {
    match value {
        Value::Ref(s) | Value::Atom(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("{s:?}"),
    }
}

/// The company as PathLog text: `name : class[a -> v; s ->> {v, w}].`
pub fn company_text(company: &Company) -> String {
    let mut text = String::new();
    for obj in &company.objs {
        let mut filters: Vec<String> = obj
            .scalars
            .iter()
            .map(|(attr, v)| format!("{attr} -> {}", literal(v)))
            .collect();
        for (attr, vs) in &obj.sets {
            let members: Vec<String> = vs.iter().map(literal).collect();
            filters.push(format!("{attr} ->> {{{}}}", members.join(", ")));
        }
        if filters.is_empty() {
            writeln!(text, "{} : {}.", obj.name, obj.class).unwrap();
        } else {
            writeln!(text, "{} : {}[{}].", obj.name, obj.class, filters.join("; ")).unwrap();
        }
    }
    text.push_str(RULES);
    text
}

/// What a scan of the company says loading its text must produce.
#[derive(Debug, PartialEq, Eq)]
pub struct LoadOracle {
    pub statements: usize,
    /// Employees, managers included: the answers of the query.
    pub employees: usize,
    /// One `address` and one `mentor` object per employee.
    pub virtual_objects: usize,
    /// Facts written in the text plus facts the rules add.
    pub derived: usize,
}

pub fn load_oracle(company: &Company) -> LoadOracle {
    let employees = company.members("employee").count();
    let managers = company.members("manager").count();
    let automobiles = company.members("automobile").count();
    let stated: usize = company
        .objs
        .iter()
        .map(|o| 1 + o.scalars.len() + o.sets.iter().map(|(_, vs)| vs.len()).sum::<usize>())
        .sum();
    // Subclass rules: manager -> employee, employee -> person, automobile -> vehicle.
    let memberships = managers + employees + automobiles;
    // Per employee: `address`, its street and city; `mentor` and its department.
    let virtual_facts = 5 * employees;
    LoadOracle {
        statements: company.objs.len() + RULE_STATEMENTS,
        employees,
        virtual_objects: 2 * employees,
        derived: stated + memberships + virtual_facts,
    }
}

struct Text {
    text: String,
    company: Company,
    oracle: Option<LoadOracle>,
}

pub struct ProgramLoad {
    texts: Vec<Text>,
    engine: Engine,
    next: usize,
    counts: Counters,
}

impl Workload for ProgramLoad {
    const NAME: &'static str = "program_load";
    const COUNT_CYCLES: usize = 2;

    fn setup(seed: u64, quick: bool) -> Self {
        let employees = if quick { 50 } else { 500 };
        let texts = (0..3)
            .map(|k| {
                let company = Company::scan(&generate(employees, seed.wrapping_mul(3).wrapping_add(k)));
                Text {
                    text: company_text(&company),
                    company,
                    oracle: None,
                }
            })
            .collect();
        ProgramLoad {
            texts,
            engine: Engine::new(),
            next: 0,
            counts: Counters::new(),
        }
    }

    fn prepare_oracle(&mut self) {
        for t in &mut self.texts {
            t.oracle = Some(load_oracle(&t.company));
        }
    }

    /// One cycle loads each text once.
    fn run_cycles(&mut self, cycles: usize, rec: &mut Recorder) {
        for _ in 0..cycles * self.texts.len() {
            let which = self.next % self.texts.len();
            self.next += 1;
            let text = &self.texts[which];
            let oracle = text.oracle.as_ref().expect("oracle prepared");

            let op = rec.begin_op(which as u8);
            let mut structure = Structure::new();
            let loaded = load_text(rec, &self.engine, &mut structure, &text.text);
            rec.end_op(op);

            let loaded = match loaded {
                Ok(loaded) => loaded,
                Err(e) => {
                    rec.fail(|| format!("program_load op: {e}"));
                    continue;
                }
            };
            let statements = loaded.program.rules.len() + loaded.program.queries.len();
            rec.check("statements", statements, oracle.statements);
            rec.check("query answers", &loaded.answers, &vec![oracle.employees]);
            rec.check("derived facts", loaded.stats.derived(), oracle.derived);
            rec.check("virtual objects", loaded.stats.virtual_objects, oracle.virtual_objects);
            // The install analysed against the empty structure it was about to fill.
            account_load(
                rec,
                &self.engine,
                &mut self.counts,
                &loaded,
                &Structure::new(),
                &structure,
            );
        }
    }

    fn counters(&self) -> Counters {
        self.counts.clone()
    }

    fn layer_metrics(&self, view: &TraceView<'_>, out: &mut Counters) {
        let mean_bytes = self.texts.iter().map(|t| t.text.len()).sum::<usize>() as f64 / self.texts.len() as f64;
        program_layer_metrics(view, out, mean_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_text_is_a_function_of_the_seed() {
        let text = |seed| company_text(&Company::scan(&generate(20, seed)));
        assert_eq!(text(4), text(4));
        assert_ne!(text(4), text(5));
        let t = text(4);
        assert!(t.contains("dept0 : department.\n"));
        assert!(t.contains(" Main St\""), "strings are quoted");
        assert!(t.contains("vehicles ->> {"));
        assert!(t.ends_with(RULES));
    }

    #[test]
    fn the_oracle_counts_statements_and_employees() {
        let company = Company::scan(&generate(20, 4));
        let o = load_oracle(&company);
        assert_eq!(o.employees, 20);
        assert_eq!(o.virtual_objects, 40);
        assert_eq!(o.statements, company_text(&company).lines().count());
    }
}
