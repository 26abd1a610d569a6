//! `path_query`: read-only queries over a 10 000-employee structure.
//!
//! A 20-step cycle: 4 short anchored paths, 4 anchored molecules, 9
//! selective two-dimensional scans (in rising cost: 1 manager query, 4
//! boss-in-the-same-city queries, 4 of reference 2.1) and 3 full scans.  By
//! cost the classes cover 0-40 %, 40-85 % and 85-100 % of the ops: the
//! median op is a boss query (45-65 %), a scan over all 10 000 employees
//! whose cost no seed changes, and the 90th percentile a full scan, each at
//! least five points from a boundary.  The point reads are not the median
//! on purpose: each one runs cold behind a full scan, so its 20 us are
//! memory stalls that change with the machine's state from run to run;
//! they are reported per layer.  Terms are parsed in set-up; an op is one
//! `Engine::query_term`, which answers once per derivation path.

use pathlog_core::engine::Engine;
use pathlog_core::structure::Structure;
use pathlog_core::term::Term;
use pathlog_datagen::company::CITIES;
use pathlog_oodb::{ObjectStore, Value};
use pathlog_parser::parse_term;

use super::facts_of;
use crate::company::{generate, Company, Obj};
use crate::harness::{Counters, TraceView, Workload};
use crate::rng::Rng;
use crate::trace::Recorder;

const POINT: u8 = 0;
const MOLECULE: u8 = 1;
const FILTERED: u8 = 2;
const FULL: u8 = 3;

/// What one query of the pool asks, in terms the oracle can scan for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ask {
    /// `e..vehicles.color`
    VehicleColours(String),
    /// `e.boss.boss.worksFor`
    GrandBossDept(String),
    /// `e[boss -> B; worksFor -> D]..vehicles : automobile[cylinders -> N].producedBy[cityOf -> Y]`
    AutoMakers(String),
    /// Reference (2.1): `X : employee[age -> a; city -> c]..vehicles : automobile[cylinders -> 4].color[Z]`
    FourCylinderColours(i64, &'static str),
    /// The manager query of Section 2.
    ManagersDrivingOwnProduct,
    /// `X : employee[age -> a; city -> c].boss[city -> c]`
    BossInSameCity(i64, &'static str),
    /// Queries 1.1-1.3: `X : employee..vehicles : automobile.color[Z]`
    AutomobileColours,
}

impl Ask {
    pub fn text(&self) -> String {
        match self {
            Ask::VehicleColours(e) => format!("{e}..vehicles.color"),
            Ask::GrandBossDept(e) => format!("{e}.boss.boss.worksFor"),
            Ask::AutoMakers(e) => {
                format!("{e}[boss -> B; worksFor -> D]..vehicles : automobile[cylinders -> N].producedBy[cityOf -> Y]")
            }
            Ask::FourCylinderColours(age, city) => {
                format!("X : employee[age -> {age}; city -> {city}]..vehicles : automobile[cylinders -> 4].color[Z]")
            }
            Ask::ManagersDrivingOwnProduct => {
                "X : manager..vehicles[color -> red].producedBy[cityOf -> detroit; president -> X]".to_owned()
            }
            Ask::BossInSameCity(age, city) => {
                format!("X : employee[age -> {age}; city -> {city}].boss[city -> {city}]")
            }
            Ask::AutomobileColours => "X : employee..vehicles : automobile.color[Z]".to_owned(),
        }
    }

    fn class(&self) -> u8 {
        match self {
            Ask::VehicleColours(_) | Ask::GrandBossDept(_) => POINT,
            Ask::AutoMakers(_) => MOLECULE,
            Ask::FourCylinderColours(..) | Ask::ManagersDrivingOwnProduct | Ask::BossInSameCity(..) => FILTERED,
            Ask::AutomobileColours => FULL,
        }
    }

    /// Derivation paths of the reference, counted by scanning the company.
    pub fn expected(&self, c: &Company) -> usize {
        fn autos<'a>(c: &'a Company, o: &'a Obj) -> impl Iterator<Item = &'a Obj> {
            c.targets(o, "vehicles").filter(|v| c.is_a(v, "automobile"))
        }
        let aged = |age: i64, city: &str| {
            c.members("employee")
                .filter(move |e| e.int("age") == Some(age) && e.sym("city") == Some(city))
                .collect::<Vec<_>>()
        };
        match self {
            Ask::VehicleColours(e) => c.get(e).map_or(0, |e| {
                c.targets(e, "vehicles").filter(|v| v.scalar("color").is_some()).count()
            }),
            Ask::GrandBossDept(e) => c
                .get(e)
                .and_then(|e| c.target(e, "boss"))
                .and_then(|b| c.target(b, "boss"))
                .map_or(0, |bb| usize::from(bb.scalar("worksFor").is_some())),
            Ask::AutoMakers(e) => c.get(e).map_or(0, |e| {
                if e.scalar("boss").is_none() || e.scalar("worksFor").is_none() {
                    return 0;
                }
                autos(c, e)
                    .filter(|a| a.scalar("cylinders").is_some())
                    .filter(|a| c.target(a, "producedBy").is_some_and(|m| m.scalar("cityOf").is_some()))
                    .count()
            }),
            Ask::FourCylinderColours(age, city) => aged(*age, city)
                .into_iter()
                .map(|e| {
                    autos(c, e)
                        .filter(|a| a.int("cylinders") == Some(4) && a.scalar("color").is_some())
                        .count()
                })
                .sum(),
            Ask::ManagersDrivingOwnProduct => c
                .members("manager")
                .map(|m| {
                    c.targets(m, "vehicles")
                        .filter(|v| v.sym("color") == Some("red"))
                        .filter_map(|v| c.target(v, "producedBy"))
                        .filter(|maker| {
                            maker.sym("cityOf") == Some("detroit") && maker.sym("president") == Some(&m.name)
                        })
                        .count()
                })
                .sum(),
            Ask::BossInSameCity(age, city) => aged(*age, city)
                .into_iter()
                .filter(|e| c.target(e, "boss").is_some_and(|b| b.sym("city") == Some(city)))
                .count(),
            Ask::AutomobileColours => c
                .members("employee")
                .map(|e| autos(c, e).filter(|a| a.scalar("color").is_some()).count())
                .sum(),
        }
    }
}

/// The 20-step cycle: which pool each step draws from.
const CYCLE: [usize; 20] = {
    const P1: usize = 0;
    const P2: usize = 1;
    const P3: usize = 2;
    const F1: usize = 3;
    const F2: usize = 4;
    const F3: usize = 5;
    const S: usize = 6;
    [
        P1, F3, P3, F1, S, P2, F3, P3, F1, F2, S, P1, F3, P3, F1, F3, P2, F1, P3, S,
    ]
};

struct Prepared {
    ask: Ask,
    term: Term,
    expected: Option<usize>,
}

pub struct PathQuery {
    db: ObjectStore,
    structure: Structure,
    /// One pool of prepared queries per shape, indexed as `CYCLE` names them.
    pools: Vec<Vec<Prepared>>,
    engine: Engine,
    step: usize,
    /// How often each pool was drawn from: the next draw takes the next query.
    draws: Vec<usize>,
    answers: f64,
    build_ms: f64,
}

/// The asks of every pool, from the seed.  Every anchor of a shape leads
/// to as much work as any other: three vehicles to read the colour of, a
/// boss who has a boss, two automobiles among three vehicles to walk the
/// molecule over.  Which employees those are depends on the seed; what an
/// op costs does not.
pub fn pools(db: &ObjectStore, employees: usize, seed: u64) -> Vec<Vec<Ask>> {
    let mut rng = Rng::new(seed, 2);
    let boss_of = |e: &str| match db.get(e, "boss") {
        Some(Value::Ref(boss)) => Some(boss.clone()),
        _ => None,
    };
    // (vehicles, automobiles among them)
    let garage = |e: &str| {
        let vehicles: Vec<&Value> = db.get_set(e, "vehicles").into_iter().flatten().collect();
        let automobiles = vehicles
            .iter()
            .filter(|v| match v {
                Value::Ref(v) => db
                    .id_of(v)
                    .and_then(|id| db.object(id))
                    .is_some_and(|o| o.class == "automobile"),
                _ => false,
            })
            .count();
        (vehicles.len(), automobiles)
    };
    let mut anchors = |fits: &dyn Fn(&str) -> bool, make: fn(String) -> Ask| -> Vec<Ask> {
        let mut pool = Vec::new();
        while pool.len() < 48 {
            let e = format!("e{}", rng.below(employees));
            if fits(&e) {
                pool.push(make(e));
            }
        }
        pool
    };
    let p1 = anchors(&|e| garage(e).0 == 3, Ask::VehicleColours);
    let p2 = anchors(
        &|e| boss_of(e).is_some_and(|b| boss_of(&b).is_some()),
        Ask::GrandBossDept,
    );
    let p3 = anchors(&|e| boss_of(e).is_some() && garage(e) == (3, 2), Ask::AutoMakers);
    let mut aged = |make: fn(i64, &'static str) -> Ask| -> Vec<Ask> {
        (0..16)
            .map(|_| make(20 + rng.below(45) as i64, CITIES[rng.below(CITIES.len())]))
            .collect()
    };
    let f1 = aged(Ask::FourCylinderColours);
    let f3 = aged(Ask::BossInSameCity);
    vec![
        p1,
        p2,
        p3,
        f1,
        vec![Ask::ManagersDrivingOwnProduct],
        f3,
        vec![Ask::AutomobileColours],
    ]
}

impl Workload for PathQuery {
    const NAME: &'static str = "path_query";
    const COUNT_CYCLES: usize = 4;

    fn setup(seed: u64, quick: bool) -> Self {
        let employees = if quick { 1_000 } else { 10_000 };
        let db = generate(employees, seed);
        let start = std::time::Instant::now();
        let structure = db.to_structure();
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let pools: Vec<Vec<Prepared>> = pools(&db, employees, seed)
            .into_iter()
            .map(|pool| {
                pool.into_iter()
                    .map(|ask| Prepared {
                        term: parse_term(&ask.text()).expect("the benchmark's own query text parses"),
                        ask,
                        expected: None,
                    })
                    .collect()
            })
            .collect();
        PathQuery {
            db,
            structure,
            draws: vec![0; pools.len()],
            pools,
            engine: Engine::new(),
            step: 0,
            answers: 0.0,
            build_ms,
        }
    }

    fn prepare_oracle(&mut self) {
        let company = Company::scan(&self.db);
        for q in self.pools.iter_mut().flatten() {
            q.expected = Some(q.ask.expected(&company));
        }
    }

    fn run_cycles(&mut self, cycles: usize, rec: &mut Recorder) {
        for _ in 0..cycles * CYCLE.len() {
            let which = CYCLE[self.step % CYCLE.len()];
            self.step += 1;
            let pool = &self.pools[which];
            let q = &pool[self.draws[which] % pool.len()];
            self.draws[which] += 1;

            let op = rec.begin_op(q.ask.class());
            let answers = rec.span("semantics.answers", || self.engine.query_term(&self.structure, &q.term));
            rec.end_op(op);
            match answers {
                Ok(answers) => {
                    self.answers += answers.len() as f64;
                    rec.check(&q.ask.text(), answers.len(), q.expected.expect("oracle prepared"));
                }
                Err(e) => rec.fail(|| format!("{}: {e}", q.ask.text())),
            }
        }
    }

    fn counters(&self) -> Counters {
        let stats = self.structure.stats();
        Counters::from([
            ("structure.objects", stats.objects as f64),
            ("structure.scalar_facts", stats.scalar_facts as f64),
            ("structure.set_members", stats.set_members as f64),
            ("structure.isa_edges", stats.isa_edges as f64),
            ("semantics.answers", self.answers),
        ])
    }

    fn layer_metrics(&self, view: &TraceView<'_>, out: &mut Counters) {
        out.insert(
            "semantics.point_p50_us",
            view.p50_us("semantics.answers", Some(MOLECULE)),
        );
        out.insert(
            "semantics.filter_scan_p50_us",
            view.p50_us("semantics.answers", Some(FILTERED)),
        );
        out.insert(
            "semantics.full_scan_p50_ms",
            view.p50_us("semantics.answers", Some(FULL)) / 1e3,
        );
        // Answers per second of engine time, over the counting round's mix.
        let per_cycle_s =
            view.total_s("semantics.answers") / (view.calls("semantics.answers") as f64 / CYCLE.len() as f64);
        let answers_per_cycle = view.count("semantics.answers") / Self::COUNT_CYCLES as f64;
        if per_cycle_s > 0.0 {
            out.insert("semantics.answers_per_s", answers_per_cycle / per_cycle_s);
        }
        out.insert("structure.build_ms", self.build_ms);
        out.insert(
            "structure.rss_bytes_per_fact",
            view.setup.rss_growth_bytes as f64 / facts_of(&self.structure.stats()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_keeps_the_median_and_the_tail_inside_a_class() {
        let classes: Vec<u8> = pools(&generate(50, 1), 50, 1)
            .iter()
            .map(|pool| pool[0].class())
            .collect();
        let count = |class| CYCLE.iter().filter(|&&p| classes[p] == class).count();
        assert_eq!(
            (count(POINT), count(MOLECULE), count(FILTERED), count(FULL)),
            (4, 4, 9, 3)
        );
        // The manager query is the cheapest filtered scan: 40-45 %.  The boss
        // query follows, 45-65 %, and holds the median.
        let draws = |pool| CYCLE.iter().filter(|&&p| p == pool).count();
        assert_eq!((draws(4), draws(5), draws(3)), (1, 4, 4));
    }

    #[test]
    fn the_seed_fixes_the_schedule() {
        let asks = |seed| pools(&generate(200, seed), 200, seed);
        assert_eq!(asks(3), asks(3));
        assert_ne!(asks(3), asks(4));
        assert!(asks(3)[2].iter().all(|a| matches!(a, Ask::AutoMakers(_))));
    }

    #[test]
    fn the_oracle_counts_paths_in_a_store_built_by_hand() {
        let mut db = generate(0, 0);
        for (name, class) in [
            ("e0", "employee"),
            ("e1", "manager"),
            ("a0", "automobile"),
            ("a1", "automobile"),
            ("v0", "vehicle"),
        ] {
            db.create(name, class).unwrap();
        }
        db.set("e0", "boss", Value::obj("e1")).unwrap();
        db.set("e0", "worksFor", Value::obj("dept0")).unwrap();
        db.set("e0", "age", Value::Int(30)).unwrap();
        db.set("e0", "city", Value::Atom("boston".into())).unwrap();
        db.set("e1", "city", Value::Atom("boston".into())).unwrap();
        for (v, colour) in [("a0", "red"), ("a1", "red"), ("v0", "blue")] {
            db.set(v, "color", Value::Atom(colour.into())).unwrap();
            db.set(v, "producedBy", Value::obj("comp0")).unwrap();
            db.add("e0", "vehicles", Value::obj(v)).unwrap();
        }
        db.set("a0", "cylinders", Value::Int(4)).unwrap();
        db.set("a1", "cylinders", Value::Int(6)).unwrap();
        let c = Company::scan(&db);
        assert_eq!(
            Ask::VehicleColours("e0".into()).expected(&c),
            3,
            "one answer per vehicle, not per colour"
        );
        assert_eq!(Ask::GrandBossDept("e0".into()).expected(&c), 0, "e1 has no boss");
        assert_eq!(Ask::AutoMakers("e0".into()).expected(&c), 2);
        assert_eq!(Ask::AutoMakers("e1".into()).expected(&c), 0);
        assert_eq!(Ask::FourCylinderColours(30, "boston").expected(&c), 1);
        assert_eq!(Ask::FourCylinderColours(31, "boston").expected(&c), 0);
        assert_eq!(Ask::BossInSameCity(30, "boston").expected(&c), 1);
        assert_eq!(Ask::AutomobileColours.expected(&c), 2);
        assert_eq!(Ask::ManagersDrivingOwnProduct.expected(&c), 0);
    }
}
