//! Semantic structures (Section 3 of the paper).
//!
//! A semantic structure is a tuple `I = (U, isa, I_N, I_->, I_->>)`:
//!
//! * `U` — the universe of objects.  Objects also serve as classes and as
//!   methods; values (integers, strings) are objects too.
//! * `isa` — a binary relation on `U` relating objects to their classes (see
//!   [`isa::Isa`]).
//! * `I_N : N -> U` — the interpretation of names: which object a name
//!   denotes.
//! * `I_->` — the interpretation of scalar methods: partial functions
//!   `U^k -> U` attached to method objects.
//! * `I_->>` — the interpretation of set-valued methods: functions
//!   `U^k -> 2^U` attached to method objects.
//!
//! [`Structure`] is the mutable, indexed realisation of this tuple used by
//! both the extensional database (facts loaded from an
//! [`ObjectStore`](https://docs.rs/pathlog-oodb)) and the intensional part
//! (facts derived by rules, including virtual objects).

mod cow;
mod facts;
mod isa;
mod runs;
mod sigs;

pub use facts::{Assert, Facts, ScalarFactView, SetFactView};
pub use isa::Isa;
pub use runs::OidRun;
pub use sigs::{Signature, Signatures};

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::builtins;
use crate::names::Name;

pub(crate) use cow::FastBuild;
use cow::{CowVec, ShardMap};

/// An object identifier — a dense index into the universe.
///
/// OIDs are a storage-level concept: users address objects through names
/// (`I_N`) or by navigating methods, never through OIDs directly.  The inner
/// index is exposed for the benefit of substrates (object store, baselines,
/// workload generators) that need dense arrays over the universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u32);

impl Oid {
    /// The dense index of this object.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Per-object bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectInfo {
    /// The name denoting this object, if any (virtual objects have none).
    /// One allocation shared with the name table's key.
    pub name: Option<Arc<Name>>,
    /// `true` if the object was created by rule evaluation (a *virtual*
    /// object in the sense of Section 2 / \[AB91\]).
    pub is_virtual: bool,
}

/// Summary statistics of a structure, used by benchmarks and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StructureStats {
    /// Number of objects in the universe.
    pub objects: usize,
    /// Number of named objects.
    pub named: usize,
    /// Number of virtual objects.
    pub virtuals: usize,
    /// Number of scalar method facts.
    pub scalar_facts: usize,
    /// Number of set-valued method applications.
    pub set_applications: usize,
    /// Total number of set members.
    pub set_members: usize,
    /// Number of directly asserted is-a edges.
    pub isa_edges: usize,
}

/// Watermarks of a structure at a snapshot boundary: the sizes of its
/// append-only insertion logs (scalar facts, set-member log, is-a closure
/// log, universe, signature declarations).
///
/// Capturing marks is O(1); the facts between two captures are the *snapshot
/// window* of everything asserted in between, recoverable as O(window)
/// slices through [`Facts::scalar_facts_in`], [`Facts::set_members_in`] and
/// [`Isa::pairs_in`].  The engine's semi-naive evaluation captures one pair
/// of marks per fixpoint iteration and derives its delta view from the
/// slice (see `pathlog_core::semantics::DeltaView`).  Windows are only
/// meaningful across a span without retractions (see the `facts` module
/// docs); the deductive engine only ever adds facts while evaluating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalMarks {
    /// Number of scalar facts.
    pub scalar_facts: usize,
    /// Number of set-member insertions (log length).
    pub set_member_inserts: usize,
    /// Number of is-a closure pairs.
    pub isa_pairs: usize,
    /// Number of objects in the universe.
    pub objects: usize,
    /// Number of signature declarations.
    pub signatures: usize,
}

impl EvalMarks {
    /// Capture the current watermarks of `structure`.
    pub fn capture(structure: &Structure) -> Self {
        EvalMarks {
            scalar_facts: structure.facts().num_scalar(),
            set_member_inserts: structure.facts().num_set_member_inserts(),
            isa_pairs: structure.isa().closure_size(),
            objects: structure.num_objects(),
            signatures: structure.signatures().len(),
        }
    }
}

/// The name interpretation `I_N`, name → object.
///
/// Names arrive from program text, so they are hashed with SipHash under a
/// per-table secret — once: the table is keyed by that 64-bit hash and
/// holds the name beside the oid, so a probe is one strong hash of the
/// name, a cheap probe by the hash, and one name comparison.
#[derive(Debug, Clone, Default)]
struct NameTable {
    by_hash: ShardMap<u64, (Arc<Name>, Oid)>,
    /// Names whose hash another name already holds in `by_hash`.  With
    /// 64-bit SipHash this stays empty; it exists so that a collision is
    /// a slower probe, never a wrong one.
    collided: CowVec<(Arc<Name>, Oid)>,
    hasher: RandomState,
}

impl NameTable {
    fn hash(&self, name: &Name) -> u64 {
        self.hasher.hash_one(name)
    }

    fn get(&self, hash: u64, name: &Name) -> Option<Oid> {
        match self.by_hash.get(&hash)? {
            (stored, oid) if **stored == *name => Some(*oid),
            _ => self.collided.iter().find(|(stored, _)| **stored == *name).map(|e| e.1),
        }
    }

    /// Register `name`, which [`NameTable::get`] did not find.
    fn insert(&mut self, hash: u64, name: Arc<Name>, oid: Oid) {
        if self.by_hash.contains_key(&hash) {
            self.collided.push((name, oid));
        } else {
            self.by_hash.insert(hash, (name, oid));
        }
    }
}

/// The resolve-once cache of one install into one structure: each distinct
/// name of a program goes through [`Structure::ensure_name`] once, and
/// every later occurrence is one probe of a map under a multiplicative
/// hash.
///
/// The parser shares one `Arc<str>` among every occurrence of a spelling
/// (see [`crate::names`]), so the cache is keyed by that allocation's
/// address and the name's kind — keys the program makes, not text from
/// outside, so the fast hash is safe here.  The names must outlive the
/// cache (the lifetime `'n`), which is what makes an address a name's
/// identity, and the cache borrows the structure whose oids it holds.  A
/// name built outside the parser — its own allocation per occurrence —
/// misses and goes through `ensure_name`; integers are keyed by value.  The
/// cache changes no object id: a name first seen is registered by
/// `ensure_name` when it is first resolved, in the caller's order.
#[derive(Debug)]
pub struct NameCache<'s, 'n> {
    structure: &'s mut Structure,
    /// Atoms and strings, by [`Name::text_address`].
    texts: HashMap<u64, Oid, FastBuild>,
    ints: HashMap<i64, Oid, FastBuild>,
    names: PhantomData<&'n Name>,
}

impl<'s, 'n> NameCache<'s, 'n> {
    /// An empty cache over `structure`.
    pub fn new(structure: &'s mut Structure) -> Self {
        NameCache {
            structure,
            texts: HashMap::default(),
            ints: HashMap::default(),
            names: PhantomData,
        }
    }

    /// The object `name` denotes, registering it if new.
    pub fn resolve(&mut self, name: &'n Name) -> Oid {
        let ensure = || self.structure.ensure_name(name);
        match (name, name.text_address()) {
            (Name::Int(i), _) => *self.ints.entry(*i).or_insert_with(ensure),
            (_, address) => *self
                .texts
                .entry(address.expect("an atom or a string has one"))
                .or_insert_with(ensure),
        }
    }
}

/// A mutable semantic structure with indexes.
///
/// A structure is a *persistent* value: every table sits on the
/// copy-on-write containers of the `cow` module, so `clone()` bumps one
/// reference count per sealed chunk / shard and copies no more than each
/// table's unsealed tail — less than one chunk, whatever the store holds;
/// the first write to either side afterwards detaches only the chunks and
/// shards it touches, and neither side ever sees the other's writes.  That
/// is what makes an epoch publish, a tolerant read's scrub or a rollback
/// snapshot cost O(delta) instead of O(store).
#[derive(Debug, Clone)]
pub struct Structure {
    objects: CowVec<ObjectInfo>,
    names: NameTable,
    isa: Isa,
    facts: Facts,
    sigs: Signatures,
    self_method: Oid,
}

impl Default for Structure {
    fn default() -> Self {
        Self::new()
    }
}

impl Structure {
    /// An empty structure with the built-in methods pre-registered: they
    /// take the first oids, in [`builtins::ALL_BUILTINS`] order, which is
    /// what lets [`Structure::is_comparison_method`] index that table by oid.
    pub fn new() -> Self {
        let mut s = Structure {
            objects: CowVec::default(),
            names: NameTable::default(),
            isa: Isa::new(),
            facts: Facts::new(),
            sigs: Signatures::new(),
            self_method: Oid(0),
        };
        for &b in builtins::ALL_BUILTINS {
            s.ensure_name(&Name::atom(b));
        }
        s.self_method = s.atom(builtins::SELF_METHOD);
        s
    }

    /// The comparison built-in `method` denotes, if it is one.
    fn comparison(&self, method: Oid) -> Option<&'static str> {
        let builtin = *builtins::ALL_BUILTINS.get(method.index())?;
        builtins::is_comparison(builtin).then_some(builtin)
    }

    // -- universe and names -------------------------------------------------

    /// The object denoted by `name`, creating it if necessary (`I_N` is a
    /// total function in the paper; the engine registers every name it sees).
    ///
    /// A probe hashes the name's text with SipHash, probes a shard and
    /// compares the text.  A new name is stored as an `Arc<Name>`
    /// beside its object, sharing the caller's text (`Name` clones are
    /// reference-count bumps).  An install, which meets each name of a
    /// program text many times, resolves through a [`NameCache`] instead,
    /// which calls this once per distinct name.
    pub fn ensure_name(&mut self, name: &Name) -> Oid {
        let hash = self.names.hash(name);
        if let Some(oid) = self.names.get(hash, name) {
            return oid;
        }
        let oid = Oid(self.objects.len() as u32);
        let name = Arc::new(name.clone());
        self.objects.push(ObjectInfo {
            name: Some(Arc::clone(&name)),
            is_virtual: false,
        });
        self.names.insert(hash, name, oid);
        oid
    }

    /// Convenience: `ensure_name` for an atom.
    pub fn atom(&mut self, name: &str) -> Oid {
        self.ensure_name(&Name::atom(name))
    }

    /// Convenience: `ensure_name` for an integer.
    pub fn int(&mut self, i: i64) -> Oid {
        self.ensure_name(&Name::Int(i))
    }

    /// Convenience: `ensure_name` for a string value.
    pub fn string(&mut self, s: &str) -> Oid {
        self.ensure_name(&Name::string(s))
    }

    /// The object denoted by `name`, if registered.
    pub fn lookup_name(&self, name: &Name) -> Option<Oid> {
        self.names.get(self.names.hash(name), name)
    }

    /// The object denoted by `name`, or [`crate::error::Error::UnknownName`].
    ///
    /// The fallible counterpart of [`Structure::lookup_name`] for call sites
    /// that would otherwise `unwrap()`: a read-only path that *requires* the
    /// name to exist (query evaluation over an asserted vocabulary, baseline
    /// plan construction) gets a reportable error instead of a panic or a
    /// silently empty answer.
    pub fn require_name(&self, name: &Name) -> crate::error::Result<Oid> {
        self.lookup_name(name)
            .ok_or_else(|| crate::error::Error::UnknownName(format!("`{name}` is not registered in the structure")))
    }

    /// The name denoting `oid`, if it has one.
    pub fn name_of(&self, oid: Oid) -> Option<&Name> {
        self.objects.get(oid.index()).and_then(|o| o.name.as_deref())
    }

    /// A printable identification of `oid`: its name, or `_#<oid>` for
    /// anonymous (virtual) objects.
    ///
    /// Atoms — the overwhelmingly common case on reporting paths — borrow
    /// the stored name; only integers, strings (which display quoted) and
    /// anonymous objects allocate.
    pub fn display_name(&self, oid: Oid) -> Cow<'_, str> {
        match self.name_of(oid) {
            Some(Name::Atom(s)) => Cow::Borrowed(s),
            Some(n) => Cow::Owned(n.to_string()),
            None => Cow::Owned(format!("_{oid}")),
        }
    }

    /// Allocate a fresh, unnamed (virtual) object.
    pub fn new_virtual(&mut self) -> Oid {
        let oid = Oid(self.objects.len() as u32);
        self.objects.push(ObjectInfo {
            name: None,
            is_virtual: true,
        });
        oid
    }

    /// `true` if `oid` was created as a virtual object.
    pub fn is_virtual(&self, oid: Oid) -> bool {
        self.objects.get(oid.index()).is_some_and(|o| o.is_virtual)
    }

    /// Does the universe contain `oid`?
    pub fn contains(&self, oid: Oid) -> bool {
        oid.index() < self.objects.len()
    }

    /// Number of objects in the universe.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Iterate over all objects.
    pub fn objects(&self) -> impl Iterator<Item = Oid> + '_ {
        (0..self.objects.len() as u32).map(Oid)
    }

    /// Iterate over all registered names and the objects they denote, in
    /// interned-oid order — a walk of the universe, not of the name table
    /// (whose iteration order is unspecified), so every consumer that
    /// materialises the alphabet (persistence, the relational baseline
    /// loader, canonical dumps) is deterministic run-to-run.
    pub fn names(&self) -> impl Iterator<Item = (&Name, Oid)> + '_ {
        self.objects
            .iter()
            .enumerate()
            .filter_map(|(i, o)| Some((o.name.as_deref()?, Oid(i as u32))))
    }

    /// The object of the built-in `self` method.
    pub fn self_method(&self) -> Oid {
        self.self_method
    }

    /// Is `oid` one of the built-in comparison methods (`lt`, `ge`, ...)?
    ///
    /// Built-in methods apply to arbitrary receivers without stored facts, so
    /// index-driven receiver seeding must not be used for them.
    pub fn is_comparison_method(&self, oid: Oid) -> bool {
        self.comparison(oid).is_some()
    }

    // -- class hierarchy ----------------------------------------------------

    /// Assert `obj isa class`.  Returns `true` if new information was added.
    pub fn add_isa(&mut self, obj: Oid, class: Oid) -> bool {
        self.isa.add(obj, class)
    }

    /// Is `obj` a (transitive) member of `class`?
    pub fn in_class(&self, obj: Oid, class: Oid) -> bool {
        self.isa.in_class(obj, class)
    }

    /// All (transitive) members of `class`.
    pub fn instances_of(&self, class: Oid) -> impl Iterator<Item = Oid> + '_ {
        self.isa.instances_of(class)
    }

    /// All (transitive) classes of `obj`.
    pub fn classes_of(&self, obj: Oid) -> impl Iterator<Item = Oid> + '_ {
        self.isa.classes_of(obj)
    }

    /// Size of the extent of `class`.
    pub fn extent_size(&self, class: Oid) -> usize {
        self.isa.extent_size(class)
    }

    /// The underlying class hierarchy.
    pub fn isa(&self) -> &Isa {
        &self.isa
    }

    // -- facts ----------------------------------------------------------------

    /// Assert a scalar fact `I_->(method)(receiver, args) = result`.
    ///
    /// A *different* result already stored for the application is an
    /// error naming the method, the receiver and both results.
    pub fn assert_scalar(
        &mut self,
        method: Oid,
        receiver: Oid,
        args: &[Oid],
        result: Oid,
    ) -> crate::error::Result<Assert> {
        self.facts
            .assert_scalar(method, receiver, args, result)
            .map_err(|existing| self.scalar_conflict(method, receiver, existing, result))
    }

    /// The error of asserting `result` where `existing` is stored, by name.
    #[cold]
    fn scalar_conflict(&self, method: Oid, receiver: Oid, existing: Oid, result: Oid) -> crate::error::Error {
        crate::error::Error::Other(format!(
            "conflicting scalar results for method {} on receiver {}: {} vs {}",
            self.display_name(method),
            self.display_name(receiver),
            self.display_name(existing),
            self.display_name(result)
        ))
    }

    /// Assert membership `member ∈ I_->>(method)(receiver, args)`.
    pub fn assert_set_member(&mut self, method: Oid, receiver: Oid, args: &[Oid], member: Oid) -> Assert {
        self.facts.assert_set_member(method, receiver, args, member)
    }

    /// Assert every one of `members` — ascending and distinct — into
    /// `I_->>(method)(receiver, args)` as one sorted merge; returns how many
    /// were new (see [`Facts::assert_set_members`]).
    pub fn assert_set_members(&mut self, method: Oid, receiver: Oid, args: &[Oid], members: &[Oid]) -> usize {
        self.facts.assert_set_members(method, receiver, args, members)
    }

    /// Declare a (possibly empty) set-valued application.
    pub fn declare_set(&mut self, method: Oid, receiver: Oid, args: &[Oid]) {
        self.facts.declare_set(method, receiver, args)
    }

    /// Apply a scalar method, taking built-ins into account:
    ///
    /// * `self` yields the receiver;
    /// * comparison built-ins (extension) yield the receiver when the
    ///   comparison between the receiver's and the argument's names holds;
    /// * otherwise the stored scalar facts are consulted.
    #[inline]
    pub fn apply_scalar(&self, method: Oid, receiver: Oid, args: &[Oid]) -> Option<Oid> {
        if method == self.self_method && args.is_empty() {
            return Some(receiver);
        }
        if let Some(cmp) = self.comparison(method) {
            if args.len() == 1 {
                let lhs = self.name_of(receiver)?;
                let rhs = self.name_of(args[0])?;
                return match builtins::compare(cmp, lhs, rhs) {
                    Some(true) => Some(receiver),
                    _ => None,
                };
            }
            return None;
        }
        self.facts.scalar_result(method, receiver, args)
    }

    /// Apply a set-valued method (no built-ins are set-valued).  The
    /// returned run is the stored member column itself (sorted,
    /// `Arc`-shared).
    #[inline]
    pub fn apply_set(&self, method: Oid, receiver: Oid, args: &[Oid]) -> Option<&OidRun> {
        self.facts.set_result(method, receiver, args)
    }

    /// Retract a stored scalar fact; returns the result it had.  Built-in
    /// methods (`self`, comparisons) cannot be retracted.
    ///
    /// Retraction is an extension beyond the paper used by the production /
    /// active-rule layer; the deductive engine itself only adds facts.
    pub fn retract_scalar(&mut self, method: Oid, receiver: Oid, args: &[Oid]) -> Option<Oid> {
        if method == self.self_method || self.is_comparison_method(method) {
            return None;
        }
        self.facts.retract_scalar(method, receiver, args)
    }

    /// Retract one member from a stored set-valued fact; returns `true` if it
    /// was present.
    pub fn retract_set_member(&mut self, method: Oid, receiver: Oid, args: &[Oid], member: Oid) -> bool {
        self.facts.retract_set_member(method, receiver, args, member)
    }

    /// Monotone count of successful retractions (scalar + set member) over
    /// this structure's lifetime.  Incremental consumers (the constraint
    /// checker, the reactive layer) snapshot it alongside their watermarks:
    /// an unchanged counter proves the span is retraction-free and delta
    /// slices over it are sound; a changed one forces a full re-pass.
    pub fn retractions(&self) -> usize {
        self.facts.num_retractions()
    }

    /// Read access to the fact tables (for baselines and reporting).
    pub fn facts(&self) -> &Facts {
        &self.facts
    }

    // -- signatures -----------------------------------------------------------

    /// Add a signature declaration.
    pub fn add_signature(&mut self, sig: Signature) -> bool {
        self.sigs.add(sig)
    }

    /// Read access to the signature declarations.
    pub fn signatures(&self) -> &Signatures {
        &self.sigs
    }

    // -- canonical serialisation ----------------------------------------------

    /// A canonical, byte-stable dump of the structure's content: names in
    /// interned-oid order, then scalar facts, set members and is-a closure
    /// pairs, each section sorted by `(method/class, receiver, args)` oids.
    ///
    /// Two structures holding the same model produce identical bytes no
    /// matter in which order their facts were asserted, without depending
    /// on hash-map iteration order.  Object ids are printed as they are,
    /// and a virtual object's id is the order in which it was minted, which
    /// the order of commits fixes.  The contract is **engine ≡
    /// reference**: the engine and the reference fixpoint
    /// ([`crate::semantics::fixpoint`]) commit in one canonical order, so
    /// they and two repeated runs agree byte for byte, and this is the
    /// emission boundary tests diff to show it.  It is no contract between revisions — a change of commit order
    /// renumbers virtual objects; `examples/model_dump.rs --normalised`
    /// prints each by its defining path instead.
    pub fn canonical_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "objects: {}", self.objects.len());
        for (name, oid) in self.names() {
            let _ = writeln!(out, "name {oid} {name}");
        }
        let mut scalars: Vec<ScalarFactView<'_>> = self.facts.scalar_facts().collect();
        scalars.sort_unstable_by(|a, b| {
            (a.method, a.receiver, a.args, a.result).cmp(&(b.method, b.receiver, b.args, b.result))
        });
        for f in scalars {
            let _ = writeln!(out, "scalar {} {} {:?} -> {}", f.method, f.receiver, f.args, f.result);
        }
        let mut members: Vec<(Oid, Oid, &[Oid], Oid)> = self
            .facts
            .set_facts()
            .flat_map(|f| f.members.iter().map(move |&m| (f.method, f.receiver, f.args, m)))
            .collect();
        members.sort_unstable();
        for (method, receiver, args, member) in members {
            let _ = writeln!(out, "member {method} {receiver} {args:?} ->> {member}");
        }
        let mut pairs: Vec<(Oid, Oid)> = self.isa.pairs_since(0).collect();
        pairs.sort_unstable();
        for (sub, sup) in pairs {
            let _ = writeln!(out, "isa {sub} : {sup}");
        }
        out
    }

    // -- statistics -----------------------------------------------------------

    /// Summary statistics.
    pub fn stats(&self) -> StructureStats {
        StructureStats {
            objects: self.objects.len(),
            named: self.objects.iter().filter(|o| o.name.is_some()).count(),
            virtuals: self.objects.iter().filter(|o| o.is_virtual).count(),
            scalar_facts: self.facts.num_scalar(),
            set_applications: self.facts.num_set_applications(),
            set_members: self.facts.num_set_members(),
            isa_edges: self.isa.direct_size(),
        }
    }
}

impl fmt::Display for StructureStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} objects ({} named, {} virtual), {} scalar facts, {} set applications ({} members), {} isa edges",
            self.objects,
            self.named,
            self.virtuals,
            self.scalar_facts,
            self.set_applications,
            self.set_members,
            self.isa_edges
        )
    }
}

#[cfg(test)]
impl cow::Sharing for Structure {
    fn parts(&self) -> Vec<*const ()> {
        [
            self.objects.parts(),
            self.names.by_hash.parts(),
            self.names.collided.parts(),
            self.isa.parts(),
            self.facts.parts(),
            self.sigs.parts(),
        ]
        .concat()
    }
}

#[cfg(test)]
mod tests {
    use super::cow::Sharing;
    use super::*;

    #[test]
    fn a_name_cache_resolves_as_ensure_name_does_in_the_same_order() {
        let shared: Arc<str> = Arc::from("a");
        // One text shared by an atom and a string, a second allocation of
        // the atom's text, integers, and repeats of each.
        let names = [
            Name::Atom(Arc::clone(&shared)),
            Name::Int(-3),
            Name::Str(Arc::clone(&shared)),
            Name::atom("b"),
            Name::atom("a"),
            Name::Atom(Arc::clone(&shared)),
            Name::Int(-3),
            Name::Str(Arc::clone(&shared)),
            Name::atom("b"),
        ];
        let mut cached = Structure::new();
        let mut cache = NameCache::new(&mut cached);
        let oids: Vec<Oid> = names.iter().map(|n| cache.resolve(n)).collect();
        let mut plain = Structure::new();
        let expected: Vec<Oid> = names.iter().map(|n| plain.ensure_name(n)).collect();
        assert_eq!(oids, expected);
        assert_ne!(oids[0], oids[2], "an atom and a string of one text are two names");
        assert_eq!((oids[0], oids[3]), (oids[4], oids[8]));
        assert_eq!(cached.num_objects(), plain.num_objects());
        assert!(names.iter().zip(&oids).all(|(n, &o)| cached.name_of(o) == Some(n)));
    }

    /// A store of `n` employees, two friends and a salary each.
    fn store_of(n: usize) -> (Structure, Vec<Oid>, Oid) {
        let mut s = Structure::new();
        let (employee, friends, salary) = (s.atom("employee"), s.atom("friends"), s.atom("salary"));
        let people: Vec<Oid> = (0..n).map(|i| s.atom(&format!("e{i}"))).collect();
        for (i, &p) in people.iter().enumerate() {
            s.add_isa(p, employee);
            let pay = s.int(1000 + (i % 97) as i64);
            s.assert_scalar(salary, p, &[], pay).unwrap();
            s.assert_set_member(friends, p, &[], people[(i + 1) % n]);
            s.assert_set_member(friends, p, &[], people[(i * 7 + 3) % n]);
        }
        (s, people, friends)
    }

    #[test]
    fn one_write_after_a_clone_detaches_a_constant_number_of_parts() {
        let detached_at = |n: usize| {
            let (a, people, friends) = store_of(n);
            let mut b = a.clone();
            assert_eq!(b.detached_from(&a), 0, "a clone shares every chunk and shard");
            assert!(b
                .assert_set_member(friends, people[n / 2], &[], people[n / 2 + 2])
                .is_new());
            assert_eq!(
                b.canonical_dump().lines().count(),
                a.canonical_dump().lines().count() + 1
            );
            // A new argument tuple of a pair the store has: a row of its own.
            let mut c = a.clone();
            assert!(c
                .assert_set_member(friends, people[n / 2], &[people[0]], people[1])
                .is_new());
            assert_eq!(
                c.facts().set_facts_of_method_receiver(friends, people[n / 2]).count(),
                2
            );
            (b.detached_from(&a), c.detached_from(&a), a.parts().len())
        };
        let (small, small_tuple, small_parts) = detached_at(1_500);
        let (large, large_tuple, large_parts) = detached_at(12_000);
        // The row's chunk: no index lists members, and the logs only grow
        // their owned tails.
        assert!((1..=4).contains(&small), "{small} parts detached");
        assert!(large <= 4, "{large} parts detached");
        // The new row goes to the owned tail: the directory shard of its
        // pair and one shard per posting index it joins.
        assert!((1..=4).contains(&small_tuple), "{small_tuple} parts detached");
        assert!(large_tuple <= 4, "{large_tuple} parts detached");
        assert!(
            large_parts > 4 * small_parts,
            "the store grew ({small_parts} -> {large_parts} parts), the write did not"
        );
    }

    #[test]
    fn names_whose_hashes_collide_are_both_found() {
        let mut names = NameTable::default();
        let (a, b) = (Arc::new(Name::atom("a")), Arc::new(Name::atom("b")));
        names.insert(7, Arc::clone(&a), Oid(1));
        names.insert(7, Arc::clone(&b), Oid(2));
        assert_eq!(names.get(7, &a), Some(Oid(1)));
        assert_eq!(
            names.get(7, &b),
            Some(Oid(2)),
            "the second holder of a hash is found too"
        );
        assert_eq!(names.get(7, &Name::atom("c")), None);
        assert_eq!(names.get(8, &a), None);
    }

    #[test]
    fn names_are_interned_once() {
        let mut s = Structure::new();
        let a = s.atom("mary");
        let b = s.ensure_name(&Name::atom("mary"));
        assert_eq!(a, b);
        assert_eq!(s.lookup_name(&Name::atom("mary")), Some(a));
        assert_eq!(s.name_of(a), Some(&Name::atom("mary")));
        assert_eq!(s.display_name(a), "mary");
    }

    #[test]
    fn integers_and_strings_are_objects() {
        let mut s = Structure::new();
        let i = s.int(30);
        let t = s.string("red");
        assert_ne!(i, t);
        assert_eq!(s.lookup_name(&Name::int(30)), Some(i));
        assert_eq!(s.lookup_name(&Name::string("red")), Some(t));
        assert_eq!(
            s.lookup_name(&Name::atom("red")),
            None,
            "string and atom are distinct names"
        );
    }

    #[test]
    fn virtual_objects_are_unnamed() {
        let mut s = Structure::new();
        let v = s.new_virtual();
        assert!(s.is_virtual(v));
        assert_eq!(s.name_of(v), None);
        assert!(s.display_name(v).starts_with('_'));
        assert!(s.contains(v));
        assert!(!s.contains(Oid(1_000_000)));
    }

    #[test]
    fn self_builtin_yields_receiver() {
        let mut s = Structure::new();
        let mary = s.atom("mary");
        let self_m = s.self_method();
        assert_eq!(s.apply_scalar(self_m, mary, &[]), Some(mary));
        assert_eq!(s.apply_scalar(self_m, mary, &[mary]), None, "self takes no arguments");
    }

    #[test]
    fn comparison_builtins() {
        let mut s = Structure::new();
        let three = s.int(3);
        let four = s.int(4);
        let lt = s.atom("lt");
        let ge = s.atom("ge");
        assert_eq!(s.apply_scalar(lt, three, &[four]), Some(three));
        assert_eq!(s.apply_scalar(lt, four, &[three]), None);
        assert_eq!(s.apply_scalar(ge, four, &[three]), Some(four));
        // wrong arity or non-integers: undefined
        assert_eq!(s.apply_scalar(lt, three, &[]), None);
        let mary = s.atom("mary");
        assert_eq!(s.apply_scalar(lt, mary, &[four]), None);
    }

    #[test]
    fn scalar_and_set_facts_via_structure() {
        let mut s = Structure::new();
        let (age, mary, thirty) = (s.atom("age"), s.atom("mary"), s.int(30));
        let (kids, tim) = (s.atom("kids"), s.atom("tim"));
        assert!(s.assert_scalar(age, mary, &[], thirty).unwrap().is_new());
        assert_eq!(s.apply_scalar(age, mary, &[]), Some(thirty));
        assert!(s.assert_set_member(kids, mary, &[], tim).is_new());
        assert!(s.apply_set(kids, mary, &[]).unwrap().contains(&tim));
        assert_eq!(s.apply_set(age, mary, &[]), None);
    }

    #[test]
    fn class_hierarchy_via_structure() {
        let mut s = Structure::new();
        let (a1, auto, vehicle) = (s.atom("a1"), s.atom("automobile"), s.atom("vehicle"));
        s.add_isa(auto, vehicle);
        s.add_isa(a1, auto);
        assert!(s.in_class(a1, vehicle));
        assert_eq!(s.extent_size(vehicle), 2);
        assert!(s.instances_of(vehicle).any(|o| o == a1));
        assert!(s.classes_of(a1).any(|c| c == vehicle));
    }

    #[test]
    fn stats_reflect_content() {
        let mut s = Structure::new();
        let base = s.stats();
        let (age, mary, thirty) = (s.atom("age"), s.atom("mary"), s.int(30));
        s.assert_scalar(age, mary, &[], thirty).unwrap();
        let v = s.new_virtual();
        s.add_isa(v, mary);
        let st = s.stats();
        assert_eq!(st.objects, base.objects + 4);
        assert_eq!(st.virtuals, 1);
        assert_eq!(st.scalar_facts, 1);
        assert_eq!(st.isa_edges, 1);
        assert!(st.to_string().contains("objects"));
    }

    #[test]
    fn require_name_reports_unknown_names() {
        let mut s = Structure::new();
        let mary = s.atom("mary");
        assert_eq!(s.require_name(&Name::atom("mary")).unwrap(), mary);
        let err = s.require_name(&Name::atom("nobody")).unwrap_err();
        assert!(matches!(err, crate::error::Error::UnknownName(ref m) if m.contains("nobody")));
    }

    #[test]
    fn canonical_dump_is_independent_of_fact_assertion_order() {
        let build = |flip: bool| {
            let mut s = Structure::new();
            let (kids, age) = (s.atom("kids"), s.atom("age"));
            let (a, b, c) = (s.atom("a"), s.atom("b"), s.atom("c"));
            let thirty = s.int(30);
            if flip {
                s.add_isa(c, a);
                s.assert_scalar(age, b, &[], thirty).unwrap();
                s.assert_set_member(kids, a, &[], c);
                s.assert_set_member(kids, a, &[], b);
            } else {
                s.assert_set_member(kids, a, &[], b);
                s.assert_set_member(kids, a, &[], c);
                s.assert_scalar(age, b, &[], thirty).unwrap();
                s.add_isa(c, a);
            }
            s.canonical_dump()
        };
        let d1 = build(false);
        let d2 = build(true);
        assert_eq!(d1, d2, "dump must not depend on assertion order");
        for needle in ["objects:", "name", "scalar", "member", "isa"] {
            assert!(d1.contains(needle), "dump section `{needle}` missing:\n{d1}");
        }
    }

    #[test]
    fn signatures_are_stored() {
        let mut s = Structure::new();
        let (person, age, integer) = (s.atom("person"), s.atom("age"), s.atom("integer"));
        assert!(s.add_signature(Signature {
            class: person,
            method: age,
            arg_classes: Box::new([]),
            result_classes: vec![integer],
            set_valued: false,
        }));
        assert!(s.signatures().declares_method(age));
        assert_eq!(s.signatures().len(), 1);
    }

    #[test]
    fn retracting_facts_makes_method_applications_undefined_again() {
        let mut s = Structure::new();
        let (age, kids, mary, tim, thirty) = (s.atom("age"), s.atom("kids"), s.atom("mary"), s.atom("tim"), s.int(30));
        s.assert_scalar(age, mary, &[], thirty).unwrap();
        s.assert_set_member(kids, mary, &[], tim);

        assert_eq!(s.retract_scalar(age, mary, &[]), Some(thirty));
        assert_eq!(s.apply_scalar(age, mary, &[]), None);
        assert_eq!(s.retract_scalar(age, mary, &[]), None);

        assert!(s.retract_set_member(kids, mary, &[], tim));
        assert_eq!(s.apply_set(kids, mary, &[]).map(|m| m.len()), Some(0));
        assert!(!s.retract_set_member(kids, mary, &[], tim));
    }

    #[test]
    fn built_in_methods_cannot_be_retracted() {
        let mut s = Structure::new();
        let mary = s.atom("mary");
        let self_m = s.self_method();
        assert_eq!(s.apply_scalar(self_m, mary, &[]), Some(mary));
        assert_eq!(s.retract_scalar(self_m, mary, &[]), None);
        assert_eq!(s.apply_scalar(self_m, mary, &[]), Some(mary), "self still applies");
    }
}
