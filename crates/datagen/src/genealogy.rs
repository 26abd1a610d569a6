//! Synthetic generator for the genealogy world of Section 6 (transitive
//! closure over `kids`).
//!
//! The generator builds a forest of persons: `roots` root persons, each the
//! ancestor of a tree of the given `depth` where every inner node has
//! `fanout` children.  The transitive-closure experiments sweep depth and
//! fan-out to show how PathLog's `desc` / `kids.tc` rules scale against a
//! relational semi-naive baseline.

use pathlog_oodb::{ObjectStore, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the generated genealogy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenealogyParams {
    /// Number of root persons (independent trees).
    pub roots: usize,
    /// Depth of each tree (0 = roots only).
    pub depth: usize,
    /// Number of kids of every non-leaf person.
    pub fanout: usize,
    /// RNG seed (ages are random; the tree shape is deterministic).
    pub seed: u64,
}

impl Default for GenealogyParams {
    fn default() -> Self {
        GenealogyParams {
            roots: 1,
            depth: 4,
            fanout: 3,
            seed: 42,
        }
    }
}

impl GenealogyParams {
    /// Total number of persons this parameter set generates.
    pub fn expected_persons(&self) -> usize {
        // roots * (fanout^(depth+1) - 1) / (fanout - 1), handling fanout <= 1
        if self.fanout <= 1 {
            return self.roots * (self.depth + 1);
        }
        let per_tree = (self.fanout.pow(self.depth as u32 + 1) - 1) / (self.fanout - 1);
        self.roots * per_tree
    }
}

/// Generate a genealogy database.
pub fn generate(params: &GenealogyParams) -> ObjectStore {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut db = ObjectStore::with_schema(Schema::genealogy());
    let mut counter = 0usize;
    for r in 0..params.roots {
        let root = format!("p{r}_0");
        counter += 1;
        db.create(&root, "person").expect("fresh root name");
        db.set(&root, "age", Value::Int(rng.gen_range(40..90))).expect("age");
        grow(&mut db, &mut rng, &root, r, params.depth, params.fanout, &mut counter);
    }
    debug_assert_eq!(counter, params.expected_persons());
    db
}

/// Generate and convert to a semantic structure in one step.
pub fn generate_structure(params: &GenealogyParams) -> pathlog_core::structure::Structure {
    generate(params).to_structure()
}

/// The small concrete family of Section 6: peter, tim, mary, sally, tom, paul.
pub fn paper_family() -> ObjectStore {
    let mut db = ObjectStore::with_schema(Schema::genealogy());
    for p in ["peter", "tim", "mary", "sally", "tom", "paul"] {
        db.create(p, "person").expect("fresh person");
    }
    db.add("peter", "kids", Value::obj("tim")).unwrap();
    db.add("peter", "kids", Value::obj("mary")).unwrap();
    db.add("tim", "kids", Value::obj("sally")).unwrap();
    db.add("mary", "kids", Value::obj("tom")).unwrap();
    db.add("mary", "kids", Value::obj("paul")).unwrap();
    db
}

fn grow(
    db: &mut ObjectStore,
    rng: &mut StdRng,
    parent: &str,
    tree: usize,
    remaining_depth: usize,
    fanout: usize,
    counter: &mut usize,
) {
    if remaining_depth == 0 {
        return;
    }
    for _ in 0..fanout {
        let child = format!("p{tree}_{counter}", counter = *counter);
        *counter += 1;
        db.create(&child, "person").expect("fresh person name");
        db.set(&child, "age", Value::Int(rng.gen_range(1..80))).expect("age");
        db.add(parent, "kids", Value::obj(child.clone())).expect("kids");
        grow(db, rng, &child, tree, remaining_depth - 1, fanout, counter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_size_matches_expectation() {
        for (roots, depth, fanout) in [(1, 3, 2), (2, 2, 3), (1, 0, 5), (3, 4, 1)] {
            let p = GenealogyParams {
                roots,
                depth,
                fanout,
                seed: 1,
            };
            let db = generate(&p);
            assert_eq!(db.len(), p.expected_persons(), "params {p:?}");
            db.integrity_check().unwrap();
        }
    }

    #[test]
    fn kids_link_parent_to_children() {
        let db = generate(&GenealogyParams {
            roots: 1,
            depth: 2,
            fanout: 2,
            seed: 1,
        });
        let kids = db.get_set("p0_0", "kids").unwrap();
        assert_eq!(kids.len(), 2);
    }

    #[test]
    fn paper_family_matches_section_6() {
        let db = paper_family();
        assert_eq!(db.len(), 6);
        assert_eq!(db.get_set("peter", "kids").unwrap().len(), 2);
        assert_eq!(db.get_set("mary", "kids").unwrap().len(), 2);
        assert_eq!(db.get_set("tim", "kids").unwrap().len(), 1);
        assert!(db.get_set("sally", "kids").is_none());
    }

    #[test]
    fn structure_conversion() {
        let s = generate_structure(&GenealogyParams {
            roots: 1,
            depth: 3,
            fanout: 2,
            seed: 1,
        });
        assert_eq!(s.stats().set_members, 14, "every non-root person is someone's kid");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = GenealogyParams::default();
        assert_eq!(pathlog_oodb::dump(&generate(&p)), pathlog_oodb::dump(&generate(&p)));
    }
}
