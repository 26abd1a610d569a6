//! Synthetic bill-of-materials (parts explosion) generator.
//!
//! The paper's transitive-closure rules (Section 6) are demonstrated on a
//! genealogy, but their classic database use case is the parts explosion: an
//! assembly has sub-parts, which have sub-parts, and a query asks for *all*
//! parts an assembly transitively contains.  This generator builds such a
//! parts hierarchy — optionally a DAG, where sub-assemblies are shared
//! between parents — so that the `desc` / `subparts.tc` rules and the
//! relational semi-naive baseline can be exercised on deep, re-convergent
//! structures rather than trees only.

use pathlog_oodb::{AttrKind, ObjectStore, Range, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the generated parts hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BomParams {
    /// Number of top-level assemblies.
    pub assemblies: usize,
    /// Depth of the explosion below each assembly (0 = assemblies only).
    pub depth: usize,
    /// Number of sub-parts of every non-leaf part.
    pub fanout: usize,
    /// Probability that a sub-part slot reuses an already existing part of
    /// the same level instead of creating a new one (0.0 gives a forest,
    /// larger values give an increasingly shared DAG).
    pub sharing: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BomParams {
    fn default() -> Self {
        BomParams {
            assemblies: 2,
            depth: 4,
            fanout: 3,
            sharing: 0.25,
            seed: 42,
        }
    }
}

impl BomParams {
    /// A parameter set with the given depth, keeping other knobs at their
    /// defaults.
    pub fn with_depth(depth: usize) -> Self {
        BomParams {
            depth,
            ..Self::default()
        }
    }

    /// Upper bound on the number of parts this parameter set can generate
    /// (reached only when `sharing` is 0).
    pub fn max_parts(&self) -> usize {
        if self.fanout <= 1 {
            return self.assemblies * (self.depth + 1);
        }
        let per_tree = (self.fanout.pow(self.depth as u32 + 1) - 1) / (self.fanout - 1);
        self.assemblies * per_tree
    }
}

/// The schema of the parts world.
pub fn schema() -> Schema {
    let mut s = Schema::new();
    s.class("part", &[]).expect("fresh class");
    s.class("assembly", &["part"]).expect("fresh class");
    s.class("atomicPart", &["part"]).expect("fresh class");
    s.attr("subparts", AttrKind::Set, "part", Range::Class("part".into()))
        .expect("fresh attr");
    s.attr("cost", AttrKind::Scalar, "part", Range::Integer)
        .expect("fresh attr");
    s.attr("weight", AttrKind::Scalar, "part", Range::Integer)
        .expect("fresh attr");
    debug_assert!(s.validate().is_ok());
    s
}

/// Generate a parts database.
pub fn generate(params: &BomParams) -> ObjectStore {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut db = ObjectStore::with_schema(schema());
    let mut counter = 0usize;

    // Per level, the parts created so far (for sharing).
    let mut levels: Vec<Vec<String>> = vec![Vec::new(); params.depth + 1];

    for a in 0..params.assemblies.max(1) {
        let root = format!("asm{a}");
        db.create(&root, "assembly").expect("fresh assembly name");
        db.set(&root, "cost", Value::Int(0)).expect("cost in schema");
        levels[0].push(root.clone());
        grow(&mut db, &mut rng, params, &root, 1, &mut levels, &mut counter);
    }
    db
}

fn grow(
    db: &mut ObjectStore,
    rng: &mut StdRng,
    params: &BomParams,
    parent: &str,
    level: usize,
    levels: &mut Vec<Vec<String>>,
    counter: &mut usize,
) {
    if level > params.depth {
        return;
    }
    for _ in 0..params.fanout {
        let reuse = !levels[level].is_empty() && rng.gen_bool(params.sharing.clamp(0.0, 1.0));
        let child = if reuse {
            levels[level][rng.gen_range(0..levels[level].len())].clone()
        } else {
            *counter += 1;
            let name = format!("part{counter}");
            let class = if level == params.depth {
                "atomicPart"
            } else {
                "assembly"
            };
            db.create(&name, class).expect("fresh part name");
            db.set(&name, "cost", Value::Int(rng.gen_range(1..100)))
                .expect("cost in schema");
            db.set(&name, "weight", Value::Int(rng.gen_range(1..50)))
                .expect("weight in schema");
            levels[level].push(name.clone());
            name
        };
        db.add(parent, "subparts", Value::obj(child.clone()))
            .expect("subparts in schema");
        if !reuse {
            grow(db, rng, params, &child, level + 1, levels, counter);
        }
    }
}

/// Generate and convert to a semantic structure in one step.
pub fn generate_structure(params: &BomParams) -> pathlog_core::structure::Structure {
    generate(params).to_structure()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parameters_generate_a_consistent_store() {
        let db = generate(&BomParams::default());
        assert!(db.integrity_check().is_ok());
        assert!(db.len() > 10);
        assert!(db.len() <= BomParams::default().max_parts());
        assert_eq!(
            db.members_of("assembly").len() + db.members_of("atomicPart").len(),
            db.len()
        );
    }

    #[test]
    fn zero_sharing_generates_a_full_forest() {
        let params = BomParams {
            sharing: 0.0,
            assemblies: 2,
            depth: 3,
            fanout: 2,
            seed: 7,
        };
        let db = generate(&params);
        assert_eq!(db.len(), params.max_parts());
    }

    #[test]
    fn sharing_shrinks_the_universe_but_keeps_every_slot_filled() {
        let base = BomParams {
            sharing: 0.0,
            assemblies: 1,
            depth: 4,
            fanout: 3,
            seed: 11,
        };
        let shared = BomParams { sharing: 0.8, ..base };
        let full = generate(&base);
        let dag = generate(&shared);
        assert!(
            dag.len() < full.len(),
            "sharing re-uses parts ({} vs {})",
            dag.len(),
            full.len()
        );
        // every non-leaf still has `fanout` subpart slots (counted with
        // multiplicity collapsed to the set level, so at least one member).
        let structure = dag.to_structure();
        let subparts = structure.facts().set_facts().count();
        assert!(subparts > 0);
    }

    #[test]
    fn depth_zero_means_assemblies_only() {
        let db = generate(&BomParams {
            depth: 0,
            assemblies: 3,
            ..BomParams::default()
        });
        assert_eq!(db.len(), 3);
        assert!(db.members_of("atomicPart").is_empty());
    }

    #[test]
    fn structures_reflect_the_generated_parts() {
        let params = BomParams {
            assemblies: 1,
            depth: 3,
            fanout: 2,
            sharing: 0.0,
            seed: 3,
        };
        let s = generate_structure(&params);
        let part_class = s.lookup_name(&pathlog_core::names::Name::atom("assembly")).unwrap();
        assert!(s.instances_of(part_class).count() > 0);
        let stats = s.stats();
        assert!(stats.set_members > 0);
        assert!(stats.scalar_facts > 0);
    }

    #[test]
    fn max_parts_matches_the_geometric_series() {
        assert_eq!(
            BomParams {
                assemblies: 1,
                depth: 2,
                fanout: 2,
                sharing: 0.0,
                seed: 0
            }
            .max_parts(),
            7
        );
        assert_eq!(
            BomParams {
                assemblies: 2,
                depth: 1,
                fanout: 3,
                sharing: 0.0,
                seed: 0
            }
            .max_parts(),
            8
        );
        assert_eq!(
            BomParams {
                assemblies: 1,
                depth: 3,
                fanout: 1,
                sharing: 0.0,
                seed: 0
            }
            .max_parts(),
            4
        );
    }

    #[test]
    fn the_schema_validates_and_knows_subparts_is_set_valued() {
        let s = schema();
        assert_eq!(s.attr_def("subparts").unwrap().kind, AttrKind::Set);
        assert!(s.is_subclass("assembly", "part"));
        assert!(s.is_subclass("atomicPart", "part"));
    }
}
