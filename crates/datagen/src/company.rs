//! Synthetic generator for the company/vehicle world of Sections 1 and 2.
//!
//! The paper's motivating queries range over employees (and managers) owning
//! vehicles (some of which are automobiles with a colour, a cylinder count
//! and a producing company located in a city with a president).  There is no
//! public data set, so this generator reproduces that domain at a chosen
//! scale with tunable fan-out and selectivities; all benchmarks and example
//! binaries draw their workloads from here.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pathlog_oodb::{ObjectStore, Schema, Value};

/// Parameters of the generated company database.
#[derive(Debug, Clone, PartialEq)]
pub struct CompanyParams {
    /// Number of employees (a fraction of which are managers).
    pub employees: usize,
    /// Fraction of employees that are managers.
    pub manager_fraction: f64,
    /// Average number of vehicles per employee.
    pub vehicles_per_employee: f64,
    /// Fraction of vehicles that are automobiles (the rest are plain vehicles).
    pub automobile_fraction: f64,
    /// Number of producing companies.
    pub companies: usize,
    /// Number of departments.
    pub departments: usize,
    /// Fraction of employees that have a recorded boss.
    pub boss_fraction: f64,
    /// Fraction of automobiles that have 4 cylinders (the paper's filter);
    /// the rest get 6 or 8.
    pub four_cylinder_fraction: f64,
    /// RNG seed: the same parameters and seed generate the same database.
    pub seed: u64,
}

impl Default for CompanyParams {
    fn default() -> Self {
        CompanyParams {
            employees: 1_000,
            manager_fraction: 0.1,
            vehicles_per_employee: 3.0,
            automobile_fraction: 0.7,
            companies: 20,
            departments: 10,
            boss_fraction: 0.9,
            four_cylinder_fraction: 0.4,
            seed: 42,
        }
    }
}

impl CompanyParams {
    /// A parameter set scaled to roughly `employees` employees, keeping every
    /// other knob at its default.
    pub fn scaled(employees: usize) -> Self {
        CompanyParams {
            employees,
            ..Self::default()
        }
    }
}

/// The colours vehicles are painted with.
pub const COLOURS: &[&str] = &["red", "blue", "green", "black", "white", "silver"];
/// The cities employees and companies live in.
pub const CITIES: &[&str] = &["newYork", "detroit", "boston", "chicago", "seattle", "mannheim"];

/// Generate a company database.
pub fn generate(params: &CompanyParams) -> ObjectStore {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut db = ObjectStore::with_schema(Schema::company());

    // departments
    for d in 0..params.departments.max(1) {
        db.create(&format!("dept{d}"), "department")
            .expect("fresh department name");
    }

    // companies (presidents are filled in once employees exist)
    for c in 0..params.companies.max(1) {
        let name = format!("comp{c}");
        db.create(&name, "company").expect("fresh company name");
        let city = CITIES[rng.gen_range(0..CITIES.len())];
        db.set(&name, "cityOf", Value::Atom(city.into()))
            .expect("cityOf in schema");
    }

    // employees and managers
    let mut employee_names = Vec::with_capacity(params.employees);
    for e in 0..params.employees {
        let is_manager = rng.gen_bool(params.manager_fraction.clamp(0.0, 1.0));
        let name = format!("e{e}");
        db.create(&name, if is_manager { "manager" } else { "employee" })
            .expect("fresh employee name");
        db.set(&name, "age", Value::Int(rng.gen_range(20..65)))
            .expect("age in schema");
        db.set(
            &name,
            "city",
            Value::Atom(CITIES[rng.gen_range(0..CITIES.len())].into()),
        )
        .expect("city in schema");
        db.set(
            &name,
            "street",
            Value::Str(format!("{} Main St", rng.gen_range(1..999))),
        )
        .expect("street");
        db.set(&name, "salary", Value::Int(rng.gen_range(30_000..150_000)))
            .expect("salary");
        let dept = format!("dept{}", rng.gen_range(0..params.departments.max(1)));
        db.set(&name, "worksFor", Value::obj(dept)).expect("worksFor");
        employee_names.push(name);
    }

    // bosses and assistants
    for name in &employee_names {
        if employee_names.len() > 1 && rng.gen_bool(params.boss_fraction.clamp(0.0, 1.0)) {
            let boss = loop {
                let candidate = &employee_names[rng.gen_range(0..employee_names.len())];
                if candidate != name {
                    break candidate.clone();
                }
            };
            db.set(name, "boss", Value::obj(boss.clone())).expect("boss");
            db.add(&boss, "assistants", Value::obj(name.clone()))
                .expect("assistants");
        }
    }

    // presidents
    if !employee_names.is_empty() {
        for c in 0..params.companies.max(1) {
            let president = employee_names[rng.gen_range(0..employee_names.len())].clone();
            db.set(&format!("comp{c}"), "president", Value::obj(president))
                .expect("president");
        }
    }

    // vehicles
    let mut vehicle_counter = 0usize;
    for name in &employee_names {
        let n = sample_count(&mut rng, params.vehicles_per_employee);
        for _ in 0..n {
            let is_auto = rng.gen_bool(params.automobile_fraction.clamp(0.0, 1.0));
            let vname = format!("{}{}", if is_auto { "auto" } else { "veh" }, vehicle_counter);
            vehicle_counter += 1;
            db.create(&vname, if is_auto { "automobile" } else { "vehicle" })
                .expect("fresh vehicle name");
            db.set(
                &vname,
                "color",
                Value::Atom(COLOURS.choose(&mut rng).unwrap().to_string()),
            )
            .expect("color");
            let company = format!("comp{}", rng.gen_range(0..params.companies.max(1)));
            db.set(&vname, "producedBy", Value::obj(company)).expect("producedBy");
            if is_auto {
                let cylinders = if rng.gen_bool(params.four_cylinder_fraction.clamp(0.0, 1.0)) {
                    4
                } else if rng.gen_bool(0.5) {
                    6
                } else {
                    8
                };
                db.set(&vname, "cylinders", Value::Int(cylinders)).expect("cylinders");
            }
            db.add(name, "vehicles", Value::obj(vname)).expect("vehicles");
        }
    }

    db
}

/// Generate and convert to a semantic structure in one step.
pub fn generate_structure(params: &CompanyParams) -> pathlog_core::structure::Structure {
    generate(params).to_structure()
}

/// Draw a non-negative count whose expectation is `mean`.
fn sample_count(rng: &mut StdRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let base = mean.floor() as usize;
    let extra = rng.gen_bool(mean - base as f64);
    base + usize::from(extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = CompanyParams {
            employees: 50,
            ..CompanyParams::default()
        };
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(pathlog_oodb::dump(&a), pathlog_oodb::dump(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&CompanyParams {
            employees: 50,
            seed: 1,
            ..CompanyParams::default()
        });
        let b = generate(&CompanyParams {
            employees: 50,
            seed: 2,
            ..CompanyParams::default()
        });
        assert_ne!(pathlog_oodb::dump(&a), pathlog_oodb::dump(&b));
    }

    #[test]
    fn generated_database_is_consistent() {
        let db = generate(&CompanyParams {
            employees: 100,
            ..CompanyParams::default()
        });
        db.integrity_check().unwrap();
        assert_eq!(db.members_of("employee").len(), 100);
        assert!(db.members_of("manager").len() < 100);
        assert!(
            db.members_of("vehicle").len() > 100,
            "about three vehicles per employee"
        );
        assert!(db.members_of("automobile").len() <= db.members_of("vehicle").len());
    }

    #[test]
    fn structure_conversion_scales() {
        let s = generate_structure(&CompanyParams {
            employees: 20,
            ..CompanyParams::default()
        });
        let stats = s.stats();
        assert!(stats.objects > 40);
        assert!(stats.scalar_facts > 100);
        assert!(stats.set_members > 0);
    }

    #[test]
    fn zero_sizes_do_not_panic() {
        let db = generate(&CompanyParams {
            employees: 0,
            companies: 0,
            departments: 0,
            ..CompanyParams::default()
        });
        assert_eq!(db.members_of("employee").len(), 0);
        db.integrity_check().unwrap();
    }

    #[test]
    fn sample_count_has_reasonable_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 2000;
        let total: usize = (0..n).map(|_| sample_count(&mut rng, 2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.15, "mean was {mean}");
    }
}
