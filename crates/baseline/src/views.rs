//! XSQL-style views with OID functions — the virtual-object baseline.
//!
//! Section 6 of the paper contrasts PathLog's method-based virtual objects
//! with the XSQL view mechanism (6.3):
//!
//! ```text
//! CREATE VIEW EmployeeBoss
//! SELECT WorksFor = D
//! FROM Employee X
//! OID FUNCTION OF X
//! WHERE X.WorksFor[D]
//! ```
//!
//! The view introduces a *class name* that doubles as a function symbol: the
//! derived object for source object `x` is addressed as `EmployeeBoss(x)`.
//! This module implements that mechanism so the two approaches can be
//! compared: a view definition ranges over a class, computes attribute values
//! through one-dimensional scalar paths, and materialises one new object per
//! source object, added to the structure as a member of the view class.

use pathlog_core::names::Name;
use pathlog_core::structure::{Oid, Structure};

/// How a view attribute's value is computed from the source object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewAttr {
    /// The attribute name on the view object.
    pub name: String,
    /// The scalar path (sequence of methods) applied to the source object.
    pub path: Vec<String>,
}

/// A view definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    /// The view (class / function symbol) name, e.g. `EmployeeBoss`.
    pub name: String,
    /// The class the view ranges over, e.g. `employee`.
    pub source_class: String,
    /// The derived attributes.
    pub attrs: Vec<ViewAttr>,
    /// Source objects are kept only if every attribute path is defined.
    pub require_all: bool,
}

impl ViewDef {
    /// Start a view definition.
    pub fn new(name: &str, source_class: &str) -> Self {
        ViewDef {
            name: name.into(),
            source_class: source_class.into(),
            attrs: Vec::new(),
            require_all: true,
        }
    }

    /// Add an attribute computed by a scalar path over the source object.
    pub fn attr(mut self, name: &str, path: &[&str]) -> Self {
        self.attrs.push(ViewAttr {
            name: name.into(),
            path: path.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Keep source objects even when some attribute paths are undefined.
    pub fn partial(mut self) -> Self {
        self.require_all = false;
        self
    }
}

/// Result of materialising a view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Number of view objects created.
    pub objects: usize,
    /// Number of attribute facts stored on view objects.
    pub facts: usize,
}

/// Materialise a view into the structure: one new object per qualifying
/// member of the source class, named `View(source)` (the OID-function
/// convention of XSQL), member of the view class, carrying the derived
/// attributes.  Materialisation is idempotent.
pub fn materialize(structure: &mut Structure, view: &ViewDef) -> ViewStats {
    let mut stats = ViewStats::default();
    let Some(source_class) = structure.lookup_name(&Name::atom(&view.source_class)) else {
        return stats;
    };
    let view_class = structure.ensure_name(&Name::atom(&view.name));
    let sources: Vec<Oid> = structure.instances_of(source_class).collect();

    for source in sources {
        // compute attribute values first (they come from the source object)
        let mut values: Vec<(String, Oid)> = Vec::new();
        let mut complete = true;
        for attr in &view.attrs {
            match follow(structure, source, &attr.path) {
                Some(v) => values.push((attr.name.clone(), v)),
                None => complete = false,
            }
        }
        if view.require_all && !complete {
            continue;
        }
        // the OID function: View(source), realised as a derived name
        let skolem = Name::atom(format!("{}({})", view.name, structure.display_name(source)));
        let existed = structure.lookup_name(&skolem).is_some();
        let view_obj = structure.ensure_name(&skolem);
        if !existed {
            stats.objects += 1;
        }
        structure.add_isa(view_obj, view_class);
        for (attr, value) in values {
            let method = structure.ensure_name(&Name::atom(&attr));
            if structure
                .assert_scalar(method, view_obj, &[], value)
                .map(|a| a.is_new())
                .unwrap_or(false)
            {
                stats.facts += 1;
            }
        }
    }
    stats
}

fn follow(structure: &Structure, start: Oid, path: &[String]) -> Option<Oid> {
    let mut current = start;
    for m in path {
        let method = structure.lookup_name(&Name::atom(m))?;
        current = structure.apply_scalar(method, current, &[])?;
    }
    Some(current)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Structure {
        let mut s = Structure::new();
        let (employee, works_for) = (s.atom("employee"), s.atom("worksFor"));
        let (p1, p2, cs1, cs2) = (s.atom("p1"), s.atom("p2"), s.atom("cs1"), s.atom("cs2"));
        s.add_isa(p1, employee);
        s.add_isa(p2, employee);
        s.assert_scalar(works_for, p1, &[], cs1).unwrap();
        s.assert_scalar(works_for, p2, &[], cs2).unwrap();
        s
    }

    #[test]
    fn employee_boss_view_6_3() {
        let mut s = world();
        let view = ViewDef::new("EmployeeBoss", "employee").attr("WorksFor", &["worksFor"]);
        let stats = materialize(&mut s, &view);
        assert_eq!(stats.objects, 2);
        assert_eq!(stats.facts, 2);
        // The derived object is addressed by the function-symbol name.
        let obj = s.lookup_name(&Name::atom("EmployeeBoss(p1)")).unwrap();
        let view_class = s.lookup_name(&Name::atom("EmployeeBoss")).unwrap();
        assert!(s.in_class(obj, view_class));
        let works_for = s.lookup_name(&Name::atom("WorksFor")).unwrap();
        let cs1 = s.lookup_name(&Name::atom("cs1")).unwrap();
        assert_eq!(s.apply_scalar(works_for, obj, &[]), Some(cs1));
    }

    #[test]
    fn materialisation_is_idempotent() {
        let mut s = world();
        let view = ViewDef::new("EmployeeBoss", "employee").attr("WorksFor", &["worksFor"]);
        materialize(&mut s, &view);
        let before = s.stats();
        let again = materialize(&mut s, &view);
        assert_eq!(again.objects, 0);
        assert_eq!(again.facts, 0);
        assert_eq!(s.stats(), before);
    }

    #[test]
    fn incomplete_sources_are_skipped_or_kept() {
        let mut s = world();
        // p3 has no worksFor
        let (employee, p3) = (s.atom("employee"), s.atom("p3"));
        s.add_isa(p3, employee);
        let strict = ViewDef::new("V1", "employee").attr("WorksFor", &["worksFor"]);
        assert_eq!(materialize(&mut s, &strict).objects, 2);
        let partial = ViewDef::new("V2", "employee").attr("WorksFor", &["worksFor"]).partial();
        assert_eq!(materialize(&mut s, &partial).objects, 3);
    }

    #[test]
    fn unknown_source_class_is_empty() {
        let mut s = world();
        let view = ViewDef::new("V", "spaceship").attr("X", &["worksFor"]);
        assert_eq!(materialize(&mut s, &view), ViewStats::default());
    }

    #[test]
    fn multi_step_paths_in_view_attributes() {
        let mut s = world();
        // address view in the spirit of (2.4), but with the XSQL mechanism
        let (street, city) = (s.atom("street"), s.atom("city"));
        let p1 = s.lookup_name(&Name::atom("p1")).unwrap();
        let main_st = s.string("Main St");
        let ny = s.atom("newYork");
        s.assert_scalar(street, p1, &[], main_st).unwrap();
        s.assert_scalar(city, p1, &[], ny).unwrap();
        let view = ViewDef::new("Address", "employee")
            .attr("street", &["street"])
            .attr("city", &["city"]);
        let stats = materialize(&mut s, &view);
        assert_eq!(stats.objects, 1, "only p1 has both attributes");
        let addr = s.lookup_name(&Name::atom("Address(p1)")).unwrap();
        assert_eq!(s.apply_scalar(city, addr, &[]), Some(ny));
    }
}
