//! A small relational algebra engine — the "flat relations" baseline.
//!
//! Section 1 of the paper motivates object-oriented data models by the cost
//! of organising application structures "by a set of flat relations".  To
//! quantify that comparison, this module translates a PathLog semantic
//! structure into flat relations (one unary relation per class extent, one
//! binary relation per attribute) and evaluates the paper's example queries
//! as select/project/join plans.
//!
//! The engine is deliberately a straightforward hash-join implementation: the
//! point of the baseline is the *plan shape* (how many joins a query needs
//! without path expressions), not a state-of-the-art optimiser.

pub mod queries;
pub mod tc;

use std::collections::{BTreeSet, HashMap};

use pathlog_core::names::Name;
use pathlog_core::structure::{Oid, Structure};

/// A relation: named columns and rows of object identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Column names.
    pub columns: Vec<String>,
    /// Rows; every row has exactly `columns.len()` entries.
    pub rows: Vec<Vec<Oid>>,
}

impl Relation {
    /// An empty relation with the given columns.
    pub fn new(columns: &[&str]) -> Self {
        Relation {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A relation built from rows.
    pub fn from_rows(columns: &[&str], rows: Vec<Vec<Oid>>) -> Self {
        let r = Relation {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows,
        };
        debug_assert!(r.rows.iter().all(|row| row.len() == r.columns.len()));
        r
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Keep the rows satisfying a predicate.
    pub fn select(&self, predicate: impl Fn(&[Oid]) -> bool) -> Relation {
        Relation {
            columns: self.columns.clone(),
            rows: self.rows.iter().filter(|r| predicate(r)).cloned().collect(),
        }
    }

    /// Keep rows whose `column` equals `value`.
    pub fn select_eq(&self, column: &str, value: Oid) -> Relation {
        let idx = self.column(column).expect("select_eq: unknown column");
        self.select(|row| row[idx] == value)
    }

    /// Project onto the given columns (in the given order).
    pub fn project(&self, columns: &[&str]) -> Relation {
        let idxs: Vec<usize> = columns
            .iter()
            .map(|c| self.column(c).expect("project: unknown column"))
            .collect();
        Relation {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: self.rows.iter().map(|r| idxs.iter().map(|&i| r[i]).collect()).collect(),
        }
    }

    /// Remove duplicate rows.
    pub fn distinct(&self) -> Relation {
        let mut seen = BTreeSet::new();
        Relation {
            columns: self.columns.clone(),
            rows: self
                .rows
                .iter()
                .filter(|r| seen.insert((*r).clone()))
                .cloned()
                .collect(),
        }
    }

    /// Rename a column.
    pub fn rename(&self, from: &str, to: &str) -> Relation {
        Relation {
            columns: self
                .columns
                .iter()
                .map(|c| if c == from { to.to_string() } else { c.clone() })
                .collect(),
            rows: self.rows.clone(),
        }
    }

    /// Union of two relations over the same columns.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.columns, other.columns, "union: schema mismatch");
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        Relation {
            columns: self.columns.clone(),
            rows,
        }
        .distinct()
    }

    /// Natural hash join on all shared columns.
    pub fn join(&self, other: &Relation) -> Relation {
        let shared: Vec<String> = self
            .columns
            .iter()
            .filter(|c| other.columns.contains(c))
            .cloned()
            .collect();
        let left_keys: Vec<usize> = shared.iter().map(|c| self.column(c).unwrap()).collect();
        let right_keys: Vec<usize> = shared.iter().map(|c| other.column(c).unwrap()).collect();
        let right_extra: Vec<usize> = (0..other.columns.len()).filter(|i| !right_keys.contains(i)).collect();

        let mut columns = self.columns.clone();
        columns.extend(right_extra.iter().map(|&i| other.columns[i].clone()));

        // build hash table on the smaller side conceptually; here: on `other`.
        let mut table: HashMap<Vec<Oid>, Vec<&Vec<Oid>>> = HashMap::new();
        for row in &other.rows {
            let key: Vec<Oid> = right_keys.iter().map(|&i| row[i]).collect();
            table.entry(key).or_default().push(row);
        }

        let mut rows = Vec::new();
        for row in &self.rows {
            let key: Vec<Oid> = left_keys.iter().map(|&i| row[i]).collect();
            if let Some(matches) = table.get(&key) {
                for m in matches {
                    let mut out = row.clone();
                    out.extend(right_extra.iter().map(|&i| m[i]));
                    rows.push(out);
                }
            }
        }
        Relation { columns, rows }
    }
}

/// A PathLog structure flattened into relations.
#[derive(Debug, Clone)]
pub struct RelationalDb {
    /// `class(x)` extents, keyed by class name.
    pub classes: HashMap<String, Relation>,
    /// `attr(x, v)` relations (scalar and set-valued alike), keyed by
    /// attribute name; columns are `subject` and `value`.
    pub attrs: HashMap<String, Relation>,
}

impl RelationalDb {
    /// Flatten a structure: one unary relation per named class with a
    /// non-empty extent, one binary relation per named method.
    pub fn from_structure(structure: &Structure) -> Self {
        let mut classes: HashMap<String, Relation> = HashMap::new();
        for (name, class) in structure.names() {
            if let Name::Atom(a) = name {
                let rows: Vec<Vec<Oid>> = structure.instances_of(class).map(|o| vec![o]).collect();
                if !rows.is_empty() {
                    classes.insert(a.to_string(), Relation::from_rows(&["subject"], rows));
                }
            }
        }
        let mut attrs: HashMap<String, Relation> = HashMap::new();
        for fact in structure.facts().scalar_facts() {
            if let Some(Name::Atom(a)) = structure.name_of(fact.method) {
                attrs
                    .entry(a.to_string())
                    .or_insert_with(|| Relation::new(&["subject", "value"]))
                    .rows
                    .push(vec![fact.receiver, fact.result]);
            }
        }
        for fact in structure.facts().set_facts() {
            if let Some(Name::Atom(a)) = structure.name_of(fact.method) {
                let rel = attrs
                    .entry(a.to_string())
                    .or_insert_with(|| Relation::new(&["subject", "value"]));
                for &m in fact.members {
                    rel.rows.push(vec![fact.receiver, m]);
                }
            }
        }
        RelationalDb { classes, attrs }
    }

    /// The extent of a class (empty if unknown), with the column renamed to
    /// `var`.
    pub fn class(&self, name: &str, var: &str) -> Relation {
        self.classes
            .get(name)
            .cloned()
            .unwrap_or_else(|| Relation::new(&["subject"]))
            .rename("subject", var)
    }

    /// An attribute relation (empty if unknown) with columns renamed to
    /// `subject_var` and `value_var`.
    pub fn attr(&self, name: &str, subject_var: &str, value_var: &str) -> Relation {
        self.attrs
            .get(name)
            .cloned()
            .unwrap_or_else(|| Relation::new(&["subject", "value"]))
            .rename("subject", subject_var)
            .rename("value", value_var)
    }

    /// Total number of tuples over all relations.
    pub fn total_tuples(&self) -> usize {
        self.classes.values().map(Relation::len).sum::<usize>() + self.attrs.values().map(Relation::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u32) -> Oid {
        Oid(i)
    }

    #[test]
    fn select_project_distinct() {
        let r = Relation::from_rows(&["a", "b"], vec![vec![o(1), o(2)], vec![o(1), o(3)], vec![o(2), o(2)]]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.select_eq("a", o(1)).len(), 2);
        let p = r.project(&["a"]);
        assert_eq!(p.columns, vec!["a"]);
        assert_eq!(p.distinct().len(), 2);
    }

    #[test]
    fn join_on_shared_columns() {
        let owners = Relation::from_rows(&["person", "vehicle"], vec![vec![o(1), o(10)], vec![o(2), o(11)]]);
        let colors = Relation::from_rows(
            &["vehicle", "color"],
            vec![vec![o(10), o(100)], vec![o(11), o(101)], vec![o(12), o(102)]],
        );
        let joined = owners.join(&colors);
        assert_eq!(joined.columns, vec!["person", "vehicle", "color"]);
        assert_eq!(joined.len(), 2);
        let red_of_1 = joined.select_eq("person", o(1)).project(&["color"]);
        assert_eq!(red_of_1.rows, vec![vec![o(100)]]);
    }

    #[test]
    fn join_without_shared_columns_is_cross_product() {
        let a = Relation::from_rows(&["x"], vec![vec![o(1)], vec![o(2)]]);
        let b = Relation::from_rows(&["y"], vec![vec![o(3)], vec![o(4)]]);
        assert_eq!(a.join(&b).len(), 4);
    }

    #[test]
    fn union_and_rename() {
        let a = Relation::from_rows(&["x"], vec![vec![o(1)], vec![o(2)]]);
        let b = Relation::from_rows(&["x"], vec![vec![o(2)], vec![o(3)]]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.rename("x", "y").columns, vec!["y"]);
    }

    #[test]
    fn flatten_structure() {
        let mut s = Structure::new();
        let (employee, e1, e2) = (s.atom("employee"), s.atom("e1"), s.atom("e2"));
        let (vehicles, v1) = (s.atom("vehicles"), s.atom("v1"));
        let (color, red) = (s.atom("color"), s.atom("red"));
        s.add_isa(e1, employee);
        s.add_isa(e2, employee);
        s.assert_set_member(vehicles, e1, &[], v1);
        s.assert_scalar(color, v1, &[], red).unwrap();
        let db = RelationalDb::from_structure(&s);
        assert_eq!(db.class("employee", "x").len(), 2);
        assert_eq!(db.attr("vehicles", "x", "v").len(), 1);
        assert_eq!(db.attr("color", "v", "c").len(), 1);
        assert_eq!(db.class("nosuch", "x").len(), 0);
        assert!(db.total_tuples() >= 4);

        // the joined query: colours of employees' vehicles
        let q = db
            .class("employee", "x")
            .join(&db.attr("vehicles", "x", "v"))
            .join(&db.attr("color", "v", "c"));
        assert_eq!(q.project(&["c"]).distinct().len(), 1);
    }
}
