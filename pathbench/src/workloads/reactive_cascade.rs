//! `reactive_cascade`: production rules and ECA triggers.
//!
//! One cycle is one production run (a fresh clone of a 300-employee
//! structure taken to quiescence by the minimum-wage rule and then by the
//! three-rule classification cascade) followed by 5 000 external salary
//! updates through an active store with four triggers and one subscriber.
//! An update is three external mutations (retract the salary, retract the
//! stale bonus base, assert the new salary); the assertion fans out to three
//! triggers and a second-level audit.  Updates are nearly all the ops, so
//! both reported percentiles are update latencies; the production run is
//! about four fifths of the time, so `ops_per_s` follows it.

use std::collections::{BTreeSet, HashMap};

use pathlog_core::names::Name;
use pathlog_core::program::Literal;
use pathlog_core::structure::{Oid, Structure};
use pathlog_core::term::{Filter, Term};
use pathlog_oodb::ObjectStore;
use pathlog_reactive::{
    Action, ActiveStore, EcaAction, EcaRule, Event, ProductionEngine, ProductionRule, Subscription,
};

use crate::company::{generate, Company};
use crate::harness::{Counters, TraceView, Workload};
use crate::rng::Rng;
use crate::trace::Recorder;

const MINIMUM_WAGE: i64 = 60_000;
const HIGH_BAND: i64 = 80_000;
/// Firings of one update: three triggers on the salary, one on the bonus base.
const FIRINGS_PER_UPDATE: usize = 4;

/// Salaries an update can set.  A few dozen: each employee's pay history
/// stops growing after the first cycles, so an update costs the same all
/// run long.
const PAY_GRADES: usize = 40;

const UPDATE: u8 = 0;
const PRODUCTION: u8 = 1;

fn salary_of_x(class: &str) -> Term {
    Term::var("X")
        .isa(class)
        .filter(Filter::scalar("salary", Term::var("S")))
}

fn compare(op: &str, bound: i64) -> Literal {
    Literal::pos(Term::var("S").scalar_args(op, vec![Term::int(bound)]))
}

fn minimum_wage_rules() -> ProductionEngine {
    let mut engine = ProductionEngine::new();
    engine.add_rule(ProductionRule::new(
        "minimum-wage",
        vec![Literal::pos(salary_of_x("employee")), compare("lt", MINIMUM_WAGE)],
        vec![
            Action::Retract(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
            Action::Assert(Term::var("X").filter(Filter::scalar("salary", Term::int(MINIMUM_WAGE)))),
        ],
    ));
    engine
}

fn classify_rules() -> ProductionEngine {
    let band = |name: &str, op: &str, class: &str| {
        ProductionRule::new(
            name,
            vec![Literal::pos(salary_of_x("staff")), compare(op, HIGH_BAND)],
            vec![Action::Assert(Term::var("X").isa(class))],
        )
    };
    let mut engine = ProductionEngine::new();
    engine.add_rule(ProductionRule::new(
        "staff",
        vec![Literal::pos(Term::var("X").isa("employee"))],
        vec![Action::Assert(Term::var("X").isa("staff"))],
    ));
    engine.add_rule(band("low-band", "lt", "lowBand"));
    engine.add_rule(band("high-band", "ge", "highBand"));
    engine
}

fn triggers(store: &mut ActiveStore) {
    let on_salary = || Event::ScalarAsserted(Name::atom("salary"));
    let employee = || vec![Literal::pos(Term::var("Receiver").isa("employee"))];
    let classify = |class: &str| EcaAction::AddIsA {
        object: Term::var("Receiver"),
        class: Name::atom(class),
    };
    store.add_rule(EcaRule::new(
        "mark-paid",
        on_salary(),
        employee(),
        vec![classify("paid")],
    ));
    store.add_rule(EcaRule::new(
        "keep-history",
        on_salary(),
        employee(),
        vec![EcaAction::AddSetMember {
            receiver: Term::var("Receiver"),
            method: Name::atom("payHistory"),
            member: Term::var("Value"),
        }],
    ));
    store.add_rule(EcaRule::new(
        "derive-bonus",
        on_salary(),
        vec![],
        vec![EcaAction::AssertScalar {
            receiver: Term::var("Receiver"),
            method: Name::atom("bonusBase"),
            value: Term::var("Value"),
        }],
    ));
    store.add_rule(EcaRule::new(
        "audit",
        Event::ScalarAsserted(Name::atom("bonusBase")),
        vec![],
        vec![classify("audited")],
    ));
}

/// What the store has seen of one employee; decides which mutations of the
/// next update change anything, and so how many notifications it sends.
#[derive(Debug, Default, Clone)]
struct Seen {
    updated: bool,
    history: BTreeSet<i64>,
}

/// Notifications of one update of an employee, from the trigger rules
/// alone: every mutation that changes the structure is announced, every
/// firing is, and each of the three external mutations ends with a barrier.
fn expected_notifications(seen: &mut Seen, amount: i64) -> usize {
    let first = !std::mem::replace(&mut seen.updated, true);
    let new_amount = seen.history.insert(amount);
    let retract_salary = 1 + 1;
    let retract_bonus = usize::from(!first) + 1;
    // The salary; three firings; `paid` once; a new history member; the
    // bonus base; the audit firing; `audited` once; the barrier.
    let assert_salary = 1 + 3 + usize::from(first) + usize::from(new_amount) + 1 + 1 + usize::from(first) + 1;
    retract_salary + retract_bonus + assert_salary
}

/// Firings a scan of the company says one production run must make.
#[derive(Debug, PartialEq, Eq)]
pub struct ProductionOracle {
    pub minimum_wage: usize,
    pub classify: usize,
}

pub fn production_oracle(company: &Company) -> ProductionOracle {
    let employees: Vec<i64> = company.members("employee").filter_map(|e| e.int("salary")).collect();
    ProductionOracle {
        minimum_wage: employees.iter().filter(|&&s| s < MINIMUM_WAGE).count(),
        // `staff` fires once per employee, then exactly one band rule does.
        classify: 2 * employees.len(),
    }
}

pub struct ReactiveCascade {
    db: ObjectStore,
    base: Structure,
    minimum_wage: ProductionEngine,
    classify: ProductionEngine,
    oracle: Option<ProductionOracle>,
    store: ActiveStore,
    stream: Subscription,
    employees: Vec<Oid>,
    salary: Oid,
    bonus: Oid,
    seen: HashMap<usize, Seen>,
    rng: Rng,
    updates: usize,
    updates_per_cycle: usize,
    counts: Counters,
    build_ms: f64,
}

impl ReactiveCascade {
    fn production_run(&mut self, rec: &mut Recorder) {
        let oracle = self.oracle.as_ref().expect("oracle prepared");
        let op = rec.begin_op(PRODUCTION);
        let mut structure = rec.span("structure.clone", || self.base.clone());
        let ran = rec.span("reactive.production", || {
            let wage = self.minimum_wage.run(&mut structure)?;
            let classify = self.classify.run(&mut structure)?;
            Ok::<_, pathlog_reactive::ReactiveError>((wage, classify))
        });
        rec.end_op(op);
        match ran {
            Ok((wage, classify)) => {
                rec.check("minimum-wage firings", wage.firings, oracle.minimum_wage);
                rec.check("classification firings", classify.firings, oracle.classify);
                let mut add = |key: &'static str, n: usize| *self.counts.entry(key).or_insert(0.0) += n as f64;
                add("reactive.production_runs", 1);
                add("reactive.production_firings", wage.firings + classify.firings);
                add("reactive.production_cycles", wage.cycles + classify.cycles);
                add(
                    "reactive.condition_solves",
                    wage.condition_solves + classify.condition_solves,
                );
                add(
                    "reactive.condition_skips",
                    wage.condition_skips + classify.condition_skips,
                );
            }
            Err(e) => rec.fail(|| format!("production run: {e}")),
        }
    }

    fn update(&mut self, rec: &mut Recorder) {
        let who = self.rng.below(self.employees.len());
        let amount = 70_000 + (self.updates % PAY_GRADES) as i64;
        self.updates += 1;
        let employee = self.employees[who];
        // Interning the amount is not a mutation: no event fires for it.
        let value = self.store.int(amount);

        let op = rec.begin_op(UPDATE);
        let cascade = rec.span("reactive.active", || {
            self.store.retract_scalar(self.salary, employee)?;
            self.store.retract_scalar(self.bonus, employee)?;
            self.store.assert_scalar(self.salary, employee, value)
        });
        let notified = rec.span("reactive.notify", || self.stream.drain().len());
        rec.end_op(op);

        let want = expected_notifications(self.seen.entry(who).or_default(), amount);
        match cascade {
            Ok(stats) => {
                rec.check("firings of one update", stats.firings, FIRINGS_PER_UPDATE);
                rec.check("notifications of one update", notified, want);
                let mut add = |key: &'static str, n: usize| *self.counts.entry(key).or_insert(0.0) += n as f64;
                add("reactive.active_firings", stats.firings);
                add("reactive.notifications", notified);
                let depth = self.counts.entry("reactive.cascade_depth_max").or_insert(0.0);
                *depth = depth.max(stats.max_depth_reached as f64);
            }
            Err(e) => rec.fail(|| format!("salary update: {e}")),
        }
    }
}

impl Workload for ReactiveCascade {
    const NAME: &'static str = "reactive_cascade";
    const COUNT_CYCLES: usize = 3;

    fn setup(seed: u64, quick: bool) -> Self {
        let employees = if quick { 60 } else { 300 };
        let db = generate(employees, seed);
        let start = std::time::Instant::now();
        let mut base = db.to_structure();
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        // The rules compare against these; they must be objects of the universe.
        base.int(MINIMUM_WAGE);
        base.int(HIGH_BAND);
        let mut store = ActiveStore::new(base.clone());
        triggers(&mut store);
        let stream = store.subscribe();
        let oids = (0..employees).map(|i| store.oid(&format!("e{i}"))).collect();
        let (salary, bonus) = (store.oid("salary"), store.oid("bonusBase"));
        ReactiveCascade {
            db,
            base,
            minimum_wage: minimum_wage_rules(),
            classify: classify_rules(),
            oracle: None,
            store,
            stream,
            employees: oids,
            salary,
            bonus,
            seen: HashMap::new(),
            rng: Rng::new(seed, 4),
            updates: 0,
            updates_per_cycle: if quick { 500 } else { 5_000 },
            counts: Counters::new(),
            build_ms,
        }
    }

    fn prepare_oracle(&mut self) {
        self.oracle = Some(production_oracle(&Company::scan(&self.db)));
    }

    fn run_cycles(&mut self, cycles: usize, rec: &mut Recorder) {
        for _ in 0..cycles {
            self.production_run(rec);
            for _ in 0..self.updates_per_cycle {
                self.update(rec);
            }
        }
    }

    fn counters(&self) -> Counters {
        self.counts.clone()
    }

    fn layer_metrics(&self, view: &TraceView<'_>, out: &mut Counters) {
        out.insert("structure.build_ms", self.build_ms);
        out.insert("structure.clone_us", view.mean_us("structure.clone"));
        let run_ms = view.mean_ms("reactive.production");
        out.insert("reactive.production_run_ms", run_ms);
        let firings_per_run =
            view.count("reactive.production_firings") / view.count("reactive.production_runs").max(1.0);
        if firings_per_run > 0.0 {
            out.insert("reactive.us_per_firing", run_ms * 1e3 / firings_per_run);
        }
        out.insert("reactive.update_p50_us", view.p50_us("reactive.active", None));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_update_of_an_employee_announces_more() {
        let mut seen = Seen::default();
        // No bonus base to retract yet; `paid` and `audited` are new.
        assert_eq!(expected_notifications(&mut seen, 70_000), 2 + 1 + 10);
        // Same amount again: nothing new but the facts themselves.
        assert_eq!(expected_notifications(&mut seen, 70_000), 2 + 2 + 7);
        assert_eq!(expected_notifications(&mut seen, 70_001), 2 + 2 + 8);
    }

    #[test]
    fn the_oracle_counts_firings_from_salaries() {
        let company = Company::scan(&generate(40, 2));
        let o = production_oracle(&company);
        let low = company
            .members("employee")
            .filter(|e| e.int("salary").unwrap() < MINIMUM_WAGE)
            .count();
        assert_eq!((o.minimum_wage, o.classify), (low, 80));
        assert!(low > 0 && low < 40);
    }
}
