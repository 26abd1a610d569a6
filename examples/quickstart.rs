//! Quickstart: build a small object base, load a PathLog program and ask
//! queries — the 60-second tour of the API.
//!
//! Run with `cargo run --example quickstart`.

use pathlog::prelude::*;

fn main() {
    // 1. An extensional database, checked against a schema.
    let mut db = ObjectStore::with_schema(Schema::company());
    db.create("mary", "employee").unwrap();
    db.create("john", "employee").unwrap();
    db.create("a1", "automobile").unwrap();
    db.create("v1", "vehicle").unwrap();
    db.set("mary", "age", Value::Int(30)).unwrap();
    db.set("mary", "city", Value::Atom("newYork".into())).unwrap();
    db.set("john", "age", Value::Int(41)).unwrap();
    db.set("john", "city", Value::Atom("detroit".into())).unwrap();
    db.add("mary", "vehicles", Value::obj("a1")).unwrap();
    db.add("john", "vehicles", Value::obj("v1")).unwrap();
    db.set("a1", "color", Value::Atom("red".into())).unwrap();
    db.set("a1", "cylinders", Value::Int(4)).unwrap();
    db.set("v1", "color", Value::Atom("blue".into())).unwrap();
    db.integrity_check().unwrap();

    // 2. Convert it into a semantic structure I = (U, isa, I_N, I_->, I_->>).
    let mut structure = db.to_structure();
    println!("extensional database: {}", structure.stats());

    // 3. Load intensional knowledge: every employee gets an address object.
    let program = parse_program(
        "X.address[city -> X.city] <- X : employee.
         ?- X : employee..vehicles : automobile[cylinders -> 4].color[Z].",
    )
    .unwrap();
    let engine = Engine::new();
    let stats = engine.load_program(&mut structure, &program).unwrap();
    println!(
        "after rule evaluation: {} ({} virtual objects)",
        structure.stats(),
        stats.virtual_objects
    );

    // 4. Ask the paper's query 2.1-style question: colours of 4-cylinder
    //    automobiles owned by employees.
    let query = &program.queries[0];
    for row in engine.query(&structure, query).unwrap().iter() {
        let x = row.get(&Var::new("X")).unwrap();
        let z = row.get(&Var::new("Z")).unwrap();
        println!(
            "employee {} owns a 4-cylinder automobile coloured {}",
            structure.display_name(x),
            structure.display_name(z)
        );
    }

    // 5. Reference the virtual address object through a path.
    let term = parse_term("mary.address.city").unwrap();
    for city in engine.eval_ground(&structure, &term).unwrap() {
        println!("mary.address.city = {}", structure.display_name(city));
    }
}
