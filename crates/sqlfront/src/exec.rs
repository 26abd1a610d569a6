//! Execution of object-SQL statements against a semantic structure.
//!
//! The frontend never evaluates anything itself: compiled queries are handed
//! to the PathLog [`Engine`], and compiled views are loaded as PathLog rules
//! (which materialise their virtual objects through the engine's
//! virtual-object mechanism).  This module only formats the engine's answers
//! as result rows.

use std::collections::{BTreeSet, HashSet};

use pathlog_core::engine::Engine;
use pathlog_core::structure::{Oid, Structure};

use crate::catalog::Catalog;
use crate::compile::{Compiled, CompiledQuery, Compiler};
use crate::error::{Result, SqlError};
use crate::parser::parse_statements;

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatementResult {
    /// A SELECT query: result columns and rows (display names of the bound
    /// objects), de-duplicated and sorted.
    Rows {
        /// The column labels, in SELECT order.
        columns: Vec<String>,
        /// The result rows.
        rows: Vec<Vec<String>>,
    },
    /// A CREATE VIEW statement: the view rule was loaded and evaluated.
    ViewDefined {
        /// The PathLog rendering of the rule that now defines the view.
        rule: String,
        /// Facts derived while materialising the view.
        derived_facts: usize,
        /// Virtual objects created for the view.
        virtual_objects: usize,
    },
}

impl StatementResult {
    /// Number of result rows (0 for view definitions).
    pub fn row_count(&self) -> usize {
        match self {
            StatementResult::Rows { rows, .. } => rows.len(),
            StatementResult::ViewDefined { .. } => 0,
        }
    }
}

/// Execute a compiled query and return `(columns, rows)`.
pub fn execute_query(structure: &Structure, compiled: &CompiledQuery) -> Result<(Vec<String>, Vec<Vec<String>>)> {
    let engine = Engine::new();
    let answers = engine
        .query(structure, &compiled.query)
        .map_err(|e| SqlError::message(format!("query evaluation failed: {e}")))?;
    let columns: Vec<String> = compiled.columns.iter().map(|(label, _)| label.clone()).collect();
    // Distinct answers can agree on every selected column: de-duplicate the
    // selected objects first, and render each distinct tuple once.
    let tuples: HashSet<Vec<Option<Oid>>> = answers
        .iter()
        .map(|row| compiled.columns.iter().map(|(_, var)| row.get(var)).collect())
        .collect();
    let render = |cell: Option<Oid>| cell.map_or_else(|| "?".to_string(), |o| structure.display_name(o).into_owned());
    let rows: BTreeSet<Vec<String>> = tuples
        .into_iter()
        .map(|tuple| tuple.into_iter().map(render).collect())
        .collect();
    Ok((columns, rows.into_iter().collect()))
}

/// Parse, compile and execute a sequence of statements against `structure`.
///
/// SELECT statements produce [`StatementResult::Rows`]; CREATE VIEW
/// statements load their rule into the structure (creating the view's
/// virtual objects) and report what was derived.
pub fn execute(structure: &mut Structure, sql: &str, catalog: &Catalog) -> Result<Vec<StatementResult>> {
    let statements = parse_statements(sql)?;
    let mut compiler = Compiler::new(catalog);
    let engine = Engine::new();
    let mut results = Vec::with_capacity(statements.len());
    for statement in &statements {
        match compiler.statement(statement)? {
            Compiled::Query(q) => {
                let (columns, rows) = execute_query(structure, &q)?;
                results.push(StatementResult::Rows { columns, rows });
            }
            Compiled::Rule(rule) => {
                let stats = engine
                    .run_rules(structure, std::slice::from_ref(&rule))
                    .map_err(|e| SqlError::message(format!("view materialisation failed: {e}")))?;
                results.push(StatementResult::ViewDefined {
                    rule: rule.to_string(),
                    derived_facts: stats.derived(),
                    virtual_objects: stats.virtual_objects,
                });
            }
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hand-built world of the paper's Sections 1–2 examples.
    fn company() -> (Structure, Catalog) {
        let mut s = Structure::new();
        let employee = s.atom("employee");
        let manager = s.atom("manager");
        let automobile = s.atom("automobile");
        let vehicles = s.atom("vehicles");
        let color = s.atom("color");
        let cylinders = s.atom("cylinders");
        let produced_by = s.atom("producedBy");
        let city_of = s.atom("cityOf");
        let president = s.atom("president");
        let works_for = s.atom("worksFor");

        let mary = s.atom("mary");
        let frank = s.atom("frank");
        let a1 = s.atom("a1");
        let a2 = s.atom("a2");
        let comp1 = s.atom("comp1");
        let dept1 = s.atom("dept1");
        let red = s.atom("red");
        let green = s.atom("green");
        let detroit = s.atom("detroit");
        let four = s.int(4);
        let six = s.int(6);

        s.add_isa(mary, employee);
        s.add_isa(frank, employee);
        s.add_isa(frank, manager);
        s.add_isa(a1, automobile);
        s.add_isa(a2, automobile);
        s.assert_set_member(vehicles, mary, &[], a1);
        s.assert_set_member(vehicles, frank, &[], a2);
        s.assert_scalar(color, a1, &[], green).unwrap();
        s.assert_scalar(color, a2, &[], red).unwrap();
        s.assert_scalar(cylinders, a1, &[], four).unwrap();
        s.assert_scalar(cylinders, a2, &[], six).unwrap();
        s.assert_scalar(produced_by, a2, &[], comp1).unwrap();
        s.assert_scalar(city_of, comp1, &[], detroit).unwrap();
        s.assert_scalar(president, comp1, &[], frank).unwrap();
        s.assert_scalar(works_for, mary, &[], dept1).unwrap();
        s.assert_scalar(works_for, frank, &[], dept1).unwrap();

        let catalog = Catalog::with_set_attrs(["vehicles"]);
        (s, catalog)
    }

    #[test]
    fn query_1_1_returns_the_automobile_colours() {
        let (structure, catalog) = company();
        let q = crate::compile::compile_query(
            "SELECT Y.color FROM X IN employee FROM Y IN X.vehicles WHERE Y IN automobile",
            &catalog,
        )
        .unwrap();
        let (columns, rows) = execute_query(&structure, &q).unwrap();
        assert_eq!(columns, vec!["Y.color".to_string()]);
        let colours: BTreeSet<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(colours, BTreeSet::from(["green", "red"]));
    }

    #[test]
    fn the_manager_query_returns_frank() {
        let (mut structure, catalog) = company();
        let results = execute(
            &mut structure,
            "SELECT X FROM X IN manager FROM Y IN X.vehicles
             WHERE Y.color = red AND Y.producedBy.cityOf = detroit AND Y.producedBy.president = X",
            &catalog,
        )
        .unwrap();
        let StatementResult::Rows { rows, .. } = &results[0] else {
            panic!("expected rows")
        };
        assert_eq!(rows, &vec![vec!["frank".to_string()]]);
    }

    #[test]
    fn views_materialise_virtual_objects_queriable_afterwards() {
        let (mut structure, catalog) = company();
        let results = execute(
            &mut structure,
            "CREATE VIEW employeeBoss SELECT worksFor = D FROM employee X OID FUNCTION OF X WHERE X.worksFor[D];
             SELECT X, D FROM X IN employee WHERE X.employeeBoss.worksFor = D;",
            &catalog,
        )
        .unwrap();
        assert_eq!(results.len(), 2);
        let StatementResult::ViewDefined {
            virtual_objects,
            derived_facts,
            rule,
        } = &results[0]
        else {
            panic!("expected a view definition");
        };
        assert_eq!(*virtual_objects, 2, "one view object per employee");
        assert!(*derived_facts >= 2);
        assert!(rule.contains("X.employeeBoss[worksFor -> D]"));
        let StatementResult::Rows { rows, columns } = &results[1] else {
            panic!("expected rows")
        };
        assert_eq!(columns, &vec!["X".to_string(), "D".to_string()]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[1] == "dept1"));
        assert_eq!(results[0].row_count(), 0);
        assert_eq!(results[1].row_count(), 2);
    }

    #[test]
    fn evaluation_errors_are_reported_as_sql_errors() {
        let (mut structure, catalog) = company();
        // A view whose attribute value conflicts for the two employees is
        // fine (each employee gets its own view object); instead provoke a
        // failure by defining a view that overwrites an existing scalar
        // method with a different value.
        let err = execute(
            &mut structure,
            "CREATE VIEW worksFor SELECT x = X FROM employee X OID FUNCTION OF X WHERE X.worksFor[D]",
            &catalog,
        )
        .unwrap_err();
        assert!(err.to_string().contains("view materialisation failed"), "{err}");
    }

    #[test]
    fn rows_are_deduplicated_and_sorted() {
        let (structure, catalog) = company();
        let q = crate::compile::compile_query("SELECT D FROM X IN employee WHERE X.worksFor[D]", &catalog).unwrap();
        let (_, rows) = execute_query(&structure, &q).unwrap();
        assert_eq!(
            rows,
            vec![vec!["dept1".to_string()]],
            "both employees map to the same department"
        );
    }
}
