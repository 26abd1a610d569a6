//! Method fact tables — the interpretations `I_->` (scalar methods) and
//! `I_->>` (set-valued methods) of a semantic structure.
//!
//! A scalar fact states `I_->(method)(receiver, args...) = result`; a set
//! fact states `member ∈ I_->>(method)(receiver, args...)`.
//!
//! # Layout
//!
//! **An application is one row, for both kinds of method.**  A scalar
//! method is a partial function and a set-valued application holds one
//! member set, so both `I_->` and `I_->>` are stored as functions of
//! `(method, receiver, args)`: one row per application in a dense table —
//! method, receiver, value, and the argument tuple as an `Arc`-shared slice
//! (none for a zero-argument row, which so allocates nothing).  A scalar
//! row's value is its result; a set row's is its members, an [`OidRun`]:
//! sorted, deduplicated, `Arc`-shared — the answers of a reference whose
//! last step reads them ([`Answers`](crate::engine::Answers)) keep them
//! zero-copy.
//!
//! Each table's `(method, receiver)` directory maps a pair to the slots of
//! its rows, kept **in argument-tuple order** (the zero-argument row
//! first): an only row's slot inline in the directory entry, several in an
//! `Arc`-shared list.  A point lookup is one directory probe and a binary
//! search over those slots' argument tuples — for the common single-row
//! pair, one probe and one row read — with nothing allocated.  Set rows are
//! never removed (a retraction empties a run, the application stays
//! defined), so a set row's slot is its application index.
//!
//! # What a clone shares and what a write detaches
//!
//! Every table here — the two row tables and their directories, the five
//! posting indexes, the insertion log and the mutation journal — sits on
//! the copy-on-write containers of the `cow` module; a row's argument
//! tuple, a set row's member run and the slot list of a pair with several
//! rows sit behind an `Arc` of their own.  Cloning the tables (an epoch
//! publish, a tolerant read's scrub, a rollback snapshot, a reactive
//! simulation) bumps one reference count per sealed chunk and per shard and
//! copies only the tables' unsealed tails — bounded by the chunk size, not
//! by the store.  A write then detaches exactly what it touches: a new row
//! — a scalar fact or a set application — appends to an owned tail and
//! detaches the directory shard of its pair and one shard of each index it
//! joins (short posting lists sit in their index bucket, long ones append
//! to an owned tail); a new set member detaches the chunk holding its
//! application's row and the member run it inserts into, and no index.
//! Appends to the logs detach nothing, and a re-assertion or a retraction
//! that misses probes read-only first and detaches nothing at all.  What
//! keeping an old clone alive costs is therefore the chunks, shards and
//! lists detached from it since, and dropping it frees just those.
//!
//! Iteration hands out [`ScalarFactView`]/[`SetFactView`] values — `Copy`
//! structs of borrowed rows — in fixed orders: global enumeration follows
//! assertion order (through the dense row tables), per-`(method, receiver)`
//! enumeration follows argument-tuple order (zero-argument row first), and
//! the posting indexes keep their lists in assertion order.  Canonical
//! dumps and deterministic enumeration downstream do not depend on the
//! layout (property-tested against a row-oriented shadow).
//!
//! # Posting indexes
//!
//! Five: scalar facts by method, by method and result and by receiver; set
//! applications by method and by receiver — each list as long as its walk,
//! so a `count_*` is O(1).  None lists the applications holding a member,
//! so a new member costs its run's merge and a log append, no hash upsert.
//! A member-bound lookup ([`Facts::set_facts_containing`]) filters the
//! method's applications, a binary search each; the planner's member step
//! answers a run of them in one pass over those ([`crate::plan`]).
//!
//! Two properties of the storage are load-bearing for the engine's
//! semi-naive evaluation (see [`crate::semantics::delta`]):
//!
//! * **insertion order**: scalar facts keep their dense slot position and
//!   set-member insertions are recorded in an append-only log, so "the facts
//!   added since watermark `k`" is an O(delta) slice;
//! * **allocation-free lookups**: point lookups resolve through the
//!   directories instead of building a boxed `(method, receiver, args)` key
//!   per call.
//!
//! Watermark slices are only meaningful across a span without retractions:
//! [`Facts::retract_scalar`] reorders the dense slot table (swap-remove) and
//! [`Facts::retract_set_member`] leaves the insertion log untouched.  The
//! deductive engine only ever adds facts while evaluating, so this holds for
//! every fixpoint run; the reactive layer retracts *between* runs.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use super::cow::{self, CowVec, FastBuild, ShardMap};
use super::runs::OidRun;
use super::Oid;

/// A borrowed view of one stored scalar fact: `method(receiver, args...) ->
/// result`.  Cheap to copy; the argument tuple borrows the stored row's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarFactView<'a> {
    /// The method object.
    pub method: Oid,
    /// The receiver object.
    pub receiver: Oid,
    /// The argument objects.
    pub args: &'a [Oid],
    /// The result object.
    pub result: Oid,
}

/// A borrowed view of one stored set-valued application (one per `(method,
/// receiver, args)`, holding all members).  Cheap to copy; the members
/// reference the stored row's `Arc`-shared run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetFactView<'a> {
    /// The method object.
    pub method: Oid,
    /// The receiver object.
    pub receiver: Oid,
    /// The argument objects.
    pub args: &'a [Oid],
    /// The members of the result set, as a sorted run.
    pub members: &'a OidRun,
}

/// Outcome of asserting a fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assert {
    /// The fact was not present before.
    New,
    /// The fact was already present; nothing changed.
    Unchanged,
}

impl Assert {
    /// `true` if the assertion added new information.
    pub fn is_new(self) -> bool {
        matches!(self, Assert::New)
    }
}

/// One row of an application table: the application `method(receiver,
/// args...)` and its value — a scalar fact's result, a set application's
/// member run.
#[derive(Debug, Clone)]
struct Row<V> {
    method: Oid,
    receiver: Oid,
    /// The argument tuple; `None` for a zero-argument row.
    args: Option<Arc<[Oid]>>,
    value: V,
}

impl<V> Row<V> {
    #[inline]
    fn args(&self) -> &[Oid] {
        self.args.as_deref().unwrap_or(&[])
    }
}

impl Row<Oid> {
    #[inline]
    fn view(&self) -> ScalarFactView<'_> {
        ScalarFactView {
            method: self.method,
            receiver: self.receiver,
            args: self.args(),
            result: self.value,
        }
    }
}

impl Row<OidRun> {
    #[inline]
    fn view(&self) -> SetFactView<'_> {
        SetFactView {
            method: self.method,
            receiver: self.receiver,
            args: self.args(),
            members: &self.value,
        }
    }
}

/// The rows of one `(method, receiver)` pair: their slots, in
/// argument-tuple order.  Never empty: the last scalar row's retraction
/// removes the directory entry, and set rows are never removed.
#[derive(Debug, Clone)]
enum AppRows {
    /// The only row, inline — almost every pair has one.
    One(u32),
    /// Several, `Arc`-shared so that detaching a directory shard copies no
    /// list.
    Many(Arc<Vec<u32>>),
}

impl AppRows {
    #[inline]
    fn slots(&self) -> &[u32] {
        match self {
            AppRows::One(slot) => std::slice::from_ref(slot),
            AppRows::Many(list) => list,
        }
    }

    /// The slot list, to write: an only row becomes a list of one.
    fn list(&mut self) -> &mut Vec<u32> {
        if let AppRows::One(slot) = *self {
            *self = AppRows::Many(Arc::new(vec![slot]));
        }
        match self {
            AppRows::Many(list) => Arc::make_mut(list),
            AppRows::One(_) => unreachable!("made a list above"),
        }
    }

    /// Re-point the row at slot `old` to slot `new`.
    fn replace(&mut self, old: u32, new: u32) {
        if let AppRows::One(slot) = self {
            *slot = new;
            return;
        }
        let list = self.list();
        let pos = list.iter().position(|&s| s == old).expect("a row of this pair");
        list[pos] = new;
    }
}

/// Where an argument tuple's row is among a `(method, receiver)` pair's.
enum Probe {
    /// Stored, at this slot.
    At(usize),
    /// Not stored: a new row takes this position in the pair's slot list,
    /// or opens the pair (`None`).
    Vacant(Option<usize>),
}

/// A dense row table and its `(method, receiver)` directory: how `I_->` and
/// `I_->>` are both stored (see the module docs).
#[derive(Debug, Clone)]
struct AppTable<V> {
    /// One row per application, in creation order.
    rows: CowVec<Row<V>>,
    /// `(method, receiver)` → the slots of the pair's rows.
    dir: ShardMap<(Oid, Oid), AppRows>,
}

impl<V> Default for AppTable<V> {
    fn default() -> Self {
        AppTable {
            rows: CowVec::default(),
            dir: ShardMap::default(),
        }
    }
}

impl<V: Clone> AppTable<V> {
    /// The slots of the rows of `(method, receiver)`, in argument-tuple
    /// order.
    #[inline]
    fn slots(&self, method: Oid, receiver: Oid) -> &[u32] {
        self.dir.get(&(method, receiver)).map_or(&[], AppRows::slots)
    }

    /// The row of `args` among `slots` — the rows of one pair, in
    /// argument-tuple order: `Ok(position)` if present, `Err(insertion
    /// position)` otherwise.
    #[inline]
    fn row_of(&self, slots: &[u32], args: &[Oid]) -> std::result::Result<usize, usize> {
        slots.binary_search_by(|&slot| self.rows[slot as usize].args().cmp(args))
    }

    /// Where the row of `(method, receiver, args)` is, or would go.
    #[inline]
    fn probe(&self, method: Oid, receiver: Oid, args: &[Oid]) -> Probe {
        let Some(rows) = self.dir.get(&(method, receiver)) else {
            return Probe::Vacant(None);
        };
        match self.row_of(rows.slots(), args) {
            Ok(pos) => Probe::At(rows.slots()[pos] as usize),
            Err(pos) => Probe::Vacant(Some(pos)),
        }
    }

    /// The slot of the row of `(method, receiver, args)`.
    #[inline]
    fn find(&self, method: Oid, receiver: Oid, args: &[Oid]) -> Option<usize> {
        match self.probe(method, receiver, args) {
            Probe::At(slot) => Some(slot),
            Probe::Vacant(_) => None,
        }
    }

    /// Append the row `(method, receiver, args)` with `value` and list it
    /// at `vacant`, the place [`AppTable::probe`] reported; returns its
    /// slot.
    fn insert(&mut self, method: Oid, receiver: Oid, args: &[Oid], value: V, vacant: Option<usize>) -> u32 {
        let slot = self.rows.len() as u32;
        self.rows.push(Row {
            method,
            receiver,
            args: (!args.is_empty()).then(|| args.into()),
            value,
        });
        let key = (method, receiver);
        match vacant {
            Some(pos) => self.dir.get_mut(&key).expect("probed").list().insert(pos, slot),
            None => {
                self.dir.insert(key, AppRows::One(slot));
            }
        }
        slot
    }
}

/// How many entries a posting list holds inline before it moves to the heap.
const INLINE_POSTINGS: usize = 5;

/// A posting list: dense slot / application numbers, in assertion order.
///
/// Most lists are a handful of entries — the facts of one receiver, those
/// of one method with one result — and live inline in their index bucket:
/// no allocation of their own, and nothing to clone but the bucket when
/// their shard is detached.  A list that outgrows the inline slots moves to
/// a chunked vector like every other table (the per-method lists run to
/// the size of the store).
#[derive(Debug, Clone)]
enum Postings {
    Inline { len: u8, slots: [u32; INLINE_POSTINGS] },
    Chunked(Box<CowVec<u32>>),
}

impl Default for Postings {
    fn default() -> Self {
        Postings::Inline {
            len: 0,
            slots: [0; INLINE_POSTINGS],
        }
    }
}

impl Postings {
    fn iter(&self) -> cow::Iter<'_, u32> {
        match self {
            Postings::Inline { len, slots } => slots[..usize::from(*len)].into(),
            Postings::Chunked(list) => list.iter(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Postings::Inline { len, .. } => usize::from(*len),
            Postings::Chunked(list) => list.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&mut self, entry: u32) {
        match self {
            Postings::Inline { len, slots } if usize::from(*len) < INLINE_POSTINGS => {
                slots[usize::from(*len)] = entry;
                *len += 1;
            }
            Postings::Inline { slots, .. } => {
                let mut list = CowVec::default();
                for &moved in slots.iter() {
                    list.push(moved);
                }
                list.push(entry);
                *self = Postings::Chunked(Box::new(list));
            }
            Postings::Chunked(list) => list.push(entry),
        }
    }

    /// The last entry.
    fn last(&self) -> Option<u32> {
        match self {
            Postings::Inline { len, slots } => usize::from(*len).checked_sub(1).map(|pos| slots[pos]),
            Postings::Chunked(list) => list.len().checked_sub(1).and_then(|pos| list.get(pos)).copied(),
        }
    }

    /// Overwrite the entry at `pos`.
    fn set(&mut self, pos: usize, entry: u32) {
        match self {
            Postings::Inline { len, slots } => slots[..usize::from(*len)][pos] = entry,
            Postings::Chunked(list) => *list.make_mut(pos) = entry,
        }
    }

    /// Remove the entry at `pos`, moving the last entry into its place.
    fn swap_remove(&mut self, pos: usize) {
        match self {
            Postings::Inline { len, slots } => {
                let live = &mut slots[..usize::from(*len)];
                live[pos] = live[live.len() - 1];
                *len -= 1;
            }
            Postings::Chunked(list) => {
                list.swap_remove(pos);
            }
        }
    }
}

/// A secondary index: key → posting list.
type Index<K> = ShardMap<K, Postings>;

/// The mutation journal behind [`Facts::mutations_since`]: append-only,
/// one `(method, receiver)` pair per successful mutation, a repeat made
/// since the last read folded into the earlier entry.
#[derive(Debug, Default)]
struct Journal {
    log: CowVec<(Oid, Oid)>,
    /// The longest `log` was when a reader last took its length
    /// ([`Journal::len`]) or it was cloned: no reader's span starts after
    /// it.  Atomic, because a reader takes the length through `&Facts` and
    /// a structure is shared between threads.  It publishes no other data,
    /// and the log is written only through `&mut Facts`, which every
    /// earlier read happens before: `Relaxed`.
    read_mark: AtomicUsize,
    /// The pairs `log` holds from `span_start` on, as bit blocks: per
    /// method and run of [`SPAN_BLOCK`] receivers, one bit per receiver.
    /// Objects are numbered densely, so a bulk build that gives many
    /// receivers the same method fills one cache-line block per 512 of
    /// them: a small table, where a hash set of the pairs would take an
    /// entry (and a cache miss) per pair.
    span: HashMap<(Oid, u32), [u64; 8], FastBuild>,
    /// The read mark `span` was collected since: while it is the read mark,
    /// `span` is what every reader's span ends with.
    span_start: usize,
}

/// How many receivers one bit block of [`Journal::span`] covers.
const SPAN_BLOCK: u32 = 512;

/// The largest table [`Journal::push`] empties in place when a span ends;
/// a larger one is dropped, so that emptying stays O(the span) after one
/// long unread span.
const SPAN_KEEP: usize = 64;

impl Clone for Journal {
    /// Both copies count as read at the current length: a reader may take
    /// its mark from one and go on with the other, so neither folds a
    /// later mutation into an entry made before the clone.
    fn clone(&self) -> Self {
        let len = self.len();
        Journal {
            log: self.log.clone(),
            read_mark: AtomicUsize::new(len),
            span: HashMap::default(),
            span_start: len,
        }
    }
}

impl Journal {
    /// The log's length, taken as a reader's mark: a span boundary.
    fn len(&self) -> usize {
        let len = self.log.len();
        self.read_mark.fetch_max(len, Ordering::Relaxed);
        len
    }

    /// Journal a mutation of `(method, receiver)` — unless an entry made
    /// since the last read already holds the pair: every reader's span then
    /// holds it already.  So a structure nobody checks (a reactive store
    /// updating the same facts over and over) journals each pair once, not
    /// once per update.
    fn push(&mut self, method: Oid, receiver: Oid) {
        let read = *self.read_mark.get_mut();
        if read != self.span_start {
            self.span_start = read;
            if self.span.capacity() > SPAN_KEEP {
                self.span = HashMap::default();
            } else {
                self.span.clear();
            }
        }
        let block = self.span.entry((method, receiver.0 / SPAN_BLOCK)).or_insert([0; 8]);
        let (word, bit) = ((receiver.0 % SPAN_BLOCK / 64) as usize, 1 << (receiver.0 % 64));
        if block[word] & bit == 0 {
            block[word] |= bit;
            self.log.push((method, receiver));
        }
    }
}

/// The fact tables of a structure.
#[derive(Debug, Default, Clone)]
pub struct Facts {
    /// `I_->`: one row per scalar fact, in assertion order.  Slot numbers
    /// double as generation stamps (see [`Facts::scalar_index`]).
    scalar: AppTable<Oid>,
    scalar_by_method: Index<Oid>,
    scalar_by_method_result: Index<(Oid, Oid)>,
    scalar_by_receiver: Index<Oid>,

    /// `I_->>`: one row per set application, in creation order.
    /// Append-only, so a slot is the dense application index.
    sets: AppTable<OidRun>,
    set_by_method: Index<Oid>,
    set_by_receiver: Index<Oid>,

    set_member_count: usize,
    /// Append-only insertion log of set members: `(application index,
    /// member)` in assertion order.  Backs the engine's delta slices.
    set_log: CowVec<(u32, Oid)>,

    /// Monotone count of successful retractions (scalar + set member).
    /// Watermark windows captured before a retraction are invalid (the
    /// slot table reorders, the insertion log over-reports); incremental
    /// consumers compare this counter to detect the invalidation and fall
    /// back to a full pass — see [`Facts::num_retractions`].
    retractions: usize,

    /// Append-only journal of the `(method, receiver)` pair touched by
    /// every successful mutation — asserts *and* retracts, scalar and set.
    /// Unlike the fact watermarks nothing is ever removed from it, so
    /// "which applications changed since mark `k`" stays answerable across
    /// retraction-bearing spans — see [`Facts::mutations_since`].
    journal: Journal,
}

impl Facts {
    /// Empty fact tables.
    pub fn new() -> Self {
        Self::default()
    }

    // -- scalar ------------------------------------------------------------

    /// Assert `I_->(method)(receiver, args) = result`.
    ///
    /// Fails with the stored result if a *different* one is already stored
    /// for the same application: scalar methods are partial functions, so
    /// conflicting results indicate an inconsistent program
    /// ([`Structure::assert_scalar`](super::Structure::assert_scalar) names
    /// them in its error).
    pub fn assert_scalar(
        &mut self,
        method: Oid,
        receiver: Oid,
        args: &[Oid],
        result: Oid,
    ) -> std::result::Result<Assert, Oid> {
        let vacant = match self.scalar.probe(method, receiver, args) {
            Probe::Vacant(pos) => pos,
            Probe::At(slot) => {
                let existing = self.scalar.rows[slot].value;
                if existing == result {
                    return Ok(Assert::Unchanged);
                }
                return Err(existing);
            }
        };
        let slot = self.scalar.insert(method, receiver, args, result, vacant);
        self.scalar_by_method.get_or_default(method).push(slot);
        self.scalar_by_method_result.get_or_default((method, result)).push(slot);
        self.scalar_by_receiver.get_or_default(receiver).push(slot);
        self.journal.push(method, receiver);
        Ok(Assert::New)
    }

    /// Look up the scalar result of a method application, if defined.
    ///
    /// One directory probe to the `(method, receiver)` pair plus a binary
    /// search over its rows' argument tuples — for a pair of one row, one
    /// row read: allocation-free for both the zero-argument common case and
    /// applications with arguments.
    pub fn scalar_result(&self, method: Oid, receiver: Oid, args: &[Oid]) -> Option<Oid> {
        let slot = self.scalar.find(method, receiver, args)?;
        Some(self.scalar.rows[slot].value)
    }

    /// The dense slot position of the scalar fact for `(method, receiver,
    /// args)`, if defined.  Positions are assigned in assertion order and
    /// stable while no scalar fact is retracted, so they double as generation
    /// stamps: `index >= k` means "asserted at or after watermark `k`".
    pub fn scalar_index(&self, method: Oid, receiver: Oid, args: &[Oid]) -> Option<usize> {
        self.scalar.find(method, receiver, args)
    }

    /// The scalar fact stored at dense slot position `idx`.
    #[inline]
    pub fn scalar_fact_at(&self, idx: usize) -> ScalarFactView<'_> {
        self.scalar.rows[idx].view()
    }

    /// All scalar facts for the compound `(method, receiver)` key — every
    /// argument tuple the method is defined for on this receiver, in
    /// argument-tuple order (zero-argument row first): the rows the pair's
    /// directory entry lists.
    pub fn scalar_facts_of_method_receiver(
        &self,
        method: Oid,
        receiver: Oid,
    ) -> impl Iterator<Item = ScalarFactView<'_>> + '_ {
        let slots = self.scalar.slots(method, receiver);
        slots.iter().map(move |&slot| self.scalar_fact_at(slot as usize))
    }

    /// All scalar facts for a method.
    pub fn scalar_facts_of_method(&self, method: Oid) -> impl Iterator<Item = ScalarFactView<'_>> + '_ {
        postings(&self.scalar_by_method, &method).map(move |&i| self.scalar_fact_at(i as usize))
    }

    /// All scalar facts for a method with a given result.
    pub fn scalar_facts_with_result(&self, method: Oid, result: Oid) -> impl Iterator<Item = ScalarFactView<'_>> + '_ {
        postings(&self.scalar_by_method_result, &(method, result)).map(move |&i| self.scalar_fact_at(i as usize))
    }

    /// How many facts [`Facts::scalar_facts_of_method`] walks.  O(1), as
    /// every `count_*`: the length of one posting list, which the query
    /// planner orders atoms by ([`crate::plan`]).
    pub fn count_scalar_of_method(&self, method: Oid) -> usize {
        posting_len(&self.scalar_by_method, &method)
    }

    /// How many facts [`Facts::scalar_facts_with_result`] walks.
    pub fn count_scalar_with_result(&self, method: Oid, result: Oid) -> usize {
        posting_len(&self.scalar_by_method_result, &(method, result))
    }

    /// Is anything stored under `method`: a scalar fact, or a set
    /// application — a declared-empty one, or one whose members were all
    /// retracted, included?  (A scalar method whose facts were all
    /// retracted has left its index.)
    pub(crate) fn has_method(&self, method: Oid) -> bool {
        self.scalar_by_method.contains_key(&method) || self.set_by_method.contains_key(&method)
    }

    /// All scalar facts whose receiver is `receiver`.
    pub fn scalar_facts_of_receiver(&self, receiver: Oid) -> impl Iterator<Item = ScalarFactView<'_>> + '_ {
        postings(&self.scalar_by_receiver, &receiver).map(move |&i| self.scalar_fact_at(i as usize))
    }

    /// Every scalar fact, in assertion order.
    pub fn scalar_facts(&self) -> impl Iterator<Item = ScalarFactView<'_>> + '_ {
        self.scalar.rows.iter().map(|row| row.view())
    }

    /// Number of scalar facts.
    pub fn num_scalar(&self) -> usize {
        self.scalar.rows.len()
    }

    /// Retract the scalar fact for `(method, receiver, args)`, if present.
    /// Returns the result the application had.
    ///
    /// Retraction is an extension beyond the paper (bottom-up evaluation of
    /// deductive rules only ever adds facts); it exists for the production /
    /// active-rule layer (`pathlog-reactive`) and for the object store's
    /// update operations.
    pub fn retract_scalar(&mut self, method: Oid, receiver: Oid, args: &[Oid]) -> Option<Oid> {
        let key = (method, receiver);
        let rows = self.scalar.dir.get(&key)?;
        let pos = self.scalar.row_of(rows.slots(), args).ok()?;
        let slot = rows.slots()[pos] as usize;
        if rows.slots().len() == 1 {
            self.scalar.dir.remove(&key);
        } else {
            self.scalar.dir.get_mut(&key).expect("probed above").list().remove(pos);
        }
        // `swap_remove` moves the previously-last row (if any) into `slot`;
        // re-point its directory entry and every index entry that referred
        // to its old position.
        let result = self.scalar.rows.swap_remove(slot).value;
        let old = self.scalar.rows.len();
        let moved = (slot < old).then(|| {
            let moved = &self.scalar.rows[slot];
            (moved.method, moved.receiver, moved.value)
        });
        if let Some((m, r, _)) = moved {
            self.scalar
                .dir
                .get_mut(&(m, r))
                .expect("a stored row has its pair")
                .replace(old as u32, slot as u32);
        }
        let by_method = moved.map(|(m, _, _)| (m, old));
        swap_remove_index(&mut self.scalar_by_method, &method, slot, by_method);
        let by_result = moved.map(|(m, _, res)| ((m, res), old));
        swap_remove_index(&mut self.scalar_by_method_result, &(method, result), slot, by_result);
        let by_receiver = moved.map(|(_, r, _)| (r, old));
        swap_remove_index(&mut self.scalar_by_receiver, &receiver, slot, by_receiver);
        self.retractions += 1;
        self.journal.push(method, receiver);
        Some(result)
    }

    // -- set-valued --------------------------------------------------------

    /// The application index of `(method, receiver, args)`, opening the
    /// application — empty, and registered in the method and receiver
    /// indexes — if it is not defined yet.
    fn set_app(&mut self, method: Oid, receiver: Oid, args: &[Oid]) -> usize {
        let vacant = match self.sets.probe(method, receiver, args) {
            Probe::At(app) => return app,
            Probe::Vacant(pos) => pos,
        };
        let app = self.sets.insert(method, receiver, args, OidRun::new(), vacant);
        self.set_by_method.get_or_default(method).push(app);
        self.set_by_receiver.get_or_default(receiver).push(app);
        app as usize
    }

    /// Assert `member ∈ I_->>(method)(receiver, args)`: the one-element case
    /// of [`Facts::assert_set_members`].
    pub fn assert_set_member(&mut self, method: Oid, receiver: Oid, args: &[Oid], member: Oid) -> Assert {
        match self.assert_set_members(method, receiver, args, &[member]) {
            0 => Assert::Unchanged,
            _ => Assert::New,
        }
    }

    /// Assert every one of `members` — ascending and distinct — into
    /// `I_->>(method)(receiver, args)`; returns how many were new.
    ///
    /// A set arrives as a sorted run and is merged as one: one application
    /// lookup, a read-only probe of every member (a batch of re-assertions
    /// detaches nothing), then one detach of the application's row and one
    /// sorted merge into its member run, which places the last new member
    /// where the probe found its place — a single member costs one binary
    /// search, as a plain insert does.  The posting lists and the insertion
    /// log receive the new members in ascending order, and the mutation
    /// journal the `(method, receiver)` pair — what a loop of
    /// [`Facts::assert_set_member`] over `members` would append.  An empty
    /// batch asserts nothing, and does not define the application.
    pub fn assert_set_members(&mut self, method: Oid, receiver: Oid, args: &[Oid], members: &[Oid]) -> usize {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending and distinct");
        if members.is_empty() {
            return 0;
        }
        let app = self.set_app(method, receiver, args);
        let stored = &self.sets.rows[app].value;
        let is_new = |x: &Oid| !stored.contains(x);
        // The probe counts the new members and keeps where the last of them
        // goes: the merge starts there without searching again.
        let (mut new, mut last_at) = (0, 0);
        for x in members {
            if let Err(at) = stored.binary_search(x) {
                (new, last_at) = (new + 1, at);
            }
        }
        if new == 0 {
            return 0;
        }
        // All new is the common case (and always that of one member): the
        // batch itself is what gets merged.
        let owned: Vec<Oid>;
        let batch = if new == members.len() {
            members
        } else {
            owned = members.iter().copied().filter(is_new).collect();
            &owned
        };
        self.sets.rows.make_mut(app).value.merge_new(batch, last_at);
        for &member in batch {
            self.set_log.push((app as u32, member));
        }
        self.journal.push(method, receiver);
        self.set_member_count += new;
        new
    }

    /// Declare an (initially empty) set-valued application, so that
    /// `set_result` reports it as defined.  Used when loading data where a
    /// set attribute exists but has no members.
    pub fn declare_set(&mut self, method: Oid, receiver: Oid, args: &[Oid]) {
        self.set_app(method, receiver, args);
    }

    /// Look up the member run of a set-valued application, if defined.
    ///
    /// One directory probe to the `(method, receiver)` pair plus a binary
    /// search over its rows' argument tuples, as for a scalar; the returned
    /// run is the stored one itself (sorted, `Arc`-shared).
    pub fn set_result(&self, method: Oid, receiver: Oid, args: &[Oid]) -> Option<&OidRun> {
        let app = self.sets.find(method, receiver, args)?;
        Some(&self.sets.rows[app].value)
    }

    /// The dense application index for `(method, receiver, args)`, if
    /// defined.  Used with [`Facts::set_members_since`] to identify
    /// applications in delta slices.
    pub fn set_index(&self, method: Oid, receiver: Oid, args: &[Oid]) -> Option<usize> {
        self.sets.find(method, receiver, args)
    }

    /// The set application stored at dense application index `idx`.
    #[inline]
    pub fn set_fact_at(&self, idx: usize) -> SetFactView<'_> {
        self.sets.rows[idx].view()
    }

    /// All set applications for the compound `(method, receiver)` key —
    /// every argument tuple the method is defined for on this receiver, in
    /// argument-tuple order (zero-argument row first): the rows the pair's
    /// directory entry lists.
    pub fn set_facts_of_method_receiver(
        &self,
        method: Oid,
        receiver: Oid,
    ) -> impl Iterator<Item = SetFactView<'_>> + '_ {
        let apps = self.sets.slots(method, receiver);
        apps.iter().map(move |&app| self.set_fact_at(app as usize))
    }

    /// Number of set-member insertions recorded so far — the current
    /// watermark for [`Facts::set_members_since`].
    pub fn num_set_member_inserts(&self) -> usize {
        self.set_log.len()
    }

    /// The scalar facts in dense positions `[lo, hi)` — a snapshot-window
    /// slice.  Both bounds are clamped to the table, so a window captured
    /// before later growth (or beyond it) degrades to an empty/shorter slice
    /// instead of panicking.  Yields `(position, fact)` pairs in assertion
    /// order; O(window).
    pub fn scalar_facts_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, ScalarFactView<'_>)> + '_ {
        let hi = hi.min(self.scalar.rows.len());
        let lo = lo.min(hi);
        (lo..hi)
            .zip(self.scalar.rows.range(lo, hi))
            .map(|(i, row)| (i, row.view()))
    }

    /// The set members inserted in the log window `[lo, hi)`, as
    /// `(application index, member)` pairs in insertion order — the bounded
    /// counterpart of [`Facts::set_members_since`] used by snapshot-window
    /// evaluation, where facts asserted *after* the window's upper watermark
    /// belong to the next window and must not leak into this one.
    pub fn set_members_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, Oid)> + '_ {
        self.set_log.range(lo, hi).map(|&(idx, member)| (idx as usize, member))
    }

    /// The set members inserted at or after watermark `mark`, as
    /// `(application index, member)` pairs in insertion order.  O(delta):
    /// a walk of the append-only insertion log's last chunks.  Only meaningful across a
    /// span without retractions (see the module docs).
    pub fn set_members_since(&self, mark: usize) -> impl Iterator<Item = (usize, Oid)> + '_ {
        self.set_members_in(mark, usize::MAX)
    }

    /// All set facts for a method, in application-creation order.
    pub fn set_facts_of_method(&self, method: Oid) -> impl Iterator<Item = SetFactView<'_>> + '_ {
        self.set_apps_of_method(method).map(move |app| self.set_fact_at(app))
    }

    /// The application indexes of [`Facts::set_facts_of_method`], ascending.
    pub(crate) fn set_apps_of_method(&self, method: Oid) -> impl Iterator<Item = usize> + '_ {
        postings(&self.set_by_method, &method).map(|&app| app as usize)
    }

    /// The set facts of a method that contain `member`, in creation order:
    /// [`Facts::set_facts_of_method`] filtered, a binary search each (no
    /// index lists a member's applications; see the module docs).
    pub fn set_facts_containing(&self, method: Oid, member: Oid) -> impl Iterator<Item = SetFactView<'_>> + '_ {
        self.set_facts_of_method(method)
            .filter(move |f| f.members.contains(&member))
    }

    /// How many applications [`Facts::set_facts_of_method`] walks.
    pub fn count_set_of_method(&self, method: Oid) -> usize {
        posting_len(&self.set_by_method, &method)
    }

    /// All set facts whose receiver is `receiver`.
    pub fn set_facts_of_receiver(&self, receiver: Oid) -> impl Iterator<Item = SetFactView<'_>> + '_ {
        postings(&self.set_by_receiver, &receiver).map(move |&i| self.set_fact_at(i as usize))
    }

    /// Every set fact, in application-creation order.
    pub fn set_facts(&self) -> impl Iterator<Item = SetFactView<'_>> + '_ {
        self.sets.rows.iter().map(|row| row.view())
    }

    /// Number of set-valued applications (not members).
    pub fn num_set_applications(&self) -> usize {
        self.sets.rows.len()
    }

    /// Total number of set members across all applications.
    pub fn num_set_members(&self) -> usize {
        self.set_member_count
    }

    /// Retract `member` from `I_->>(method)(receiver, args)`.  Returns `true`
    /// if the member was present.  The application itself stays defined
    /// (possibly empty), mirroring [`Facts::declare_set`].
    pub fn retract_set_member(&mut self, method: Oid, receiver: Oid, args: &[Oid], member: Oid) -> bool {
        let Some(app) = self.sets.find(method, receiver, args) else {
            return false;
        };
        // Probe before detaching: a miss must not copy anything.
        if !self.sets.rows[app].value.contains(&member) {
            return false;
        }
        self.sets.rows.make_mut(app).value.remove(&member);
        self.set_member_count -= 1;
        self.retractions += 1;
        self.journal.push(method, receiver);
        true
    }

    /// Monotone count of successful retractions over the lifetime of these
    /// tables.  Unlike the fact counts this never decreases, so two
    /// snapshots of it bracket a span: equal counters mean no retraction
    /// happened in between and watermark slices over the span are sound.
    pub fn num_retractions(&self) -> usize {
        self.retractions
    }

    /// Length of the mutation journal — the current watermark for
    /// [`Facts::mutations_since`].  Taking it (or cloning the tables) marks
    /// a span boundary: a mutation of a pair the journal already holds
    /// since the boundary is folded into that entry, one made across it
    /// never is.
    pub fn mutation_len(&self) -> usize {
        self.journal.len()
    }

    /// The `(method, receiver)` pairs touched by every successful mutation
    /// (assert or retract, scalar or set member) at or after watermark
    /// `mark`, in mutation order — each at least once since the mark, a
    /// repeat made in the same span possibly folded into an earlier entry.
    /// The journal is append-only even across retractions, so — unlike the
    /// fact-count watermarks — this slice stays sound over
    /// retraction-bearing spans.  It answers "which applications *may* have
    /// changed", not "which facts were added", and carries no sign: the
    /// incremental matcher ([`crate::plan::Condition`]) re-solves a touched
    /// condition for the touched receivers only, which finds what an
    /// insertion added and what a retraction took alike.  O(delta): a walk
    /// of the journal's last chunks.
    pub fn mutations_since(&self, mark: usize) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        self.journal.log.range(mark, usize::MAX).copied()
    }

    /// The method projection of [`Facts::mutations_since`]: which method
    /// keys *may* have changed since `mark`.
    pub fn mutation_keys_since(&self, mark: usize) -> impl Iterator<Item = Oid> + '_ {
        self.mutations_since(mark).map(|(method, _)| method)
    }
}

#[cfg(test)]
impl cow::Sharing for Facts {
    fn parts(&self) -> Vec<*const ()> {
        [
            self.scalar.rows.parts(),
            self.scalar.dir.parts(),
            self.scalar_by_method.parts(),
            self.scalar_by_method_result.parts(),
            self.scalar_by_receiver.parts(),
            self.sets.rows.parts(),
            self.sets.dir.parts(),
            self.set_by_method.parts(),
            self.set_by_receiver.parts(),
            self.set_log.parts(),
            self.journal.log.parts(),
        ]
        .concat()
    }
}

/// The posting list under `key`, in assertion order (empty if there is none).
fn postings<'a, K: Hash + Eq>(index: &'a Index<K>, key: &K) -> cow::Iter<'a, u32> {
    index.get(key).map(Postings::iter).unwrap_or_default()
}

/// The length of the posting list under `key`.
fn posting_len<K: Hash + Eq>(index: &Index<K>, key: &K) -> usize {
    index.get(key).map_or(0, Postings::len)
}

/// Take row `slot` out of the posting list under `key` and, when the last
/// row `old` moved into `slot`, re-point the moved row's entry under its
/// key `moved.0` from `old` to `slot`: a row table's swap-remove, mirrored
/// in one index.  Rows are appended, so the moved row's entry is usually
/// its list's last; under the same key the two steps then come to one pop.
fn swap_remove_index<K: Hash + Eq + Clone>(index: &mut Index<K>, key: &K, slot: usize, moved: Option<(K, usize)>) {
    let Some((moved_key, old)) = moved else {
        return remove_index(index, key, slot);
    };
    if moved_key == *key {
        let list = index.get_mut(key).expect("a stored row is indexed");
        if list.last() == Some(old as u32) {
            list.swap_remove(list.len() - 1);
            return;
        }
    }
    remove_index(index, key, slot);
    replace_index(index, &moved_key, old, slot);
}

/// Remove one occurrence of `idx` from the posting list under `key`.
fn remove_index<K: Hash + Eq + Clone>(index: &mut Index<K>, key: &K, idx: usize) {
    if let Some(list) = index.get_mut(key) {
        let pos = list.iter().position(|&i| i as usize == idx);
        if let Some(pos) = pos {
            list.swap_remove(pos);
        }
        if list.is_empty() {
            index.remove(key);
        }
    }
}

/// Re-point the one occurrence of `old` to `new` in the posting list under
/// `key`, looked for at the end first.
fn replace_index<K: Hash + Eq + Clone>(index: &mut Index<K>, key: &K, old: usize, new: usize) {
    if let Some(list) = index.get_mut(key) {
        let last = (list.last() == Some(old as u32)).then(|| list.len() - 1);
        let pos = last.or_else(|| list.iter().position(|&i| i as usize == old));
        if let Some(pos) = pos {
            list.set(pos, new as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::cow::{Sharing, CHUNK};
    use super::*;
    use std::collections::BTreeSet;

    fn o(i: u32) -> Oid {
        Oid(i)
    }

    #[test]
    fn scalar_assert_and_lookup() {
        let mut f = Facts::new();
        assert!(f.assert_scalar(o(1), o(10), &[], o(20)).unwrap().is_new());
        assert!(!f.assert_scalar(o(1), o(10), &[], o(20)).unwrap().is_new());
        assert_eq!(f.scalar_result(o(1), o(10), &[]), Some(o(20)));
        assert_eq!(f.scalar_result(o(1), o(11), &[]), None);
        assert_eq!(f.num_scalar(), 1);
    }

    #[test]
    fn mutation_journal_records_asserts_and_retracts() {
        let mut f = Facts::new();
        assert_eq!(f.mutation_len(), 0);
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.assert_set_member(o(2), o(10), &[], o(30));
        // Duplicates change nothing and are not journaled.
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.assert_set_member(o(2), o(10), &[], o(30));
        assert_eq!(f.mutation_keys_since(0).collect::<Vec<_>>(), [o(1), o(2)]);
        let mark = f.mutation_len();
        // Retractions append too — the journal survives them.
        assert!(f.retract_scalar(o(1), o(10), &[]).is_some());
        assert!(f.retract_set_member(o(2), o(10), &[], o(30)));
        // Failed retractions are not journaled.
        assert!(f.retract_scalar(o(1), o(10), &[]).is_none());
        assert!(!f.retract_set_member(o(2), o(10), &[], o(30)));
        assert_eq!(f.mutation_keys_since(mark).collect::<Vec<_>>(), [o(1), o(2)]);
        assert_eq!(
            f.mutations_since(mark).collect::<Vec<_>>(),
            [(o(1), o(10)), (o(2), o(10))]
        );
        assert_eq!(f.num_retractions(), 2);
        // Out-of-range marks clamp instead of panicking.
        assert_eq!(f.mutation_keys_since(999).count(), 0);
    }

    #[test]
    fn a_repeat_since_the_last_read_is_folded_into_the_journal() {
        let mut f = Facts::new();
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.retract_scalar(o(1), o(10), &[]);
        f.assert_scalar(o(1), o(10), &[], o(21)).unwrap();
        assert_eq!(f.mutations_since(0).collect::<Vec<_>>(), [(o(1), o(10))], "one span");
        let mark = f.mutation_len();
        f.retract_scalar(o(1), o(10), &[]);
        assert_eq!(
            f.mutations_since(mark).collect::<Vec<_>>(),
            [(o(1), o(10))],
            "a span a reader took holds it again"
        );
        // However many other pairs were journaled since.
        for r in 11..14 {
            f.assert_scalar(o(1), o(r), &[], o(20)).unwrap();
        }
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        assert_eq!(f.mutations_since(mark).count(), 4);
    }

    /// A structure nobody reads journals each pair once however often it is
    /// mutated; after a read, a mutation of each pair journals it once more.
    #[test]
    fn an_unread_journal_holds_each_pair_once() {
        let mut f = Facts::new();
        let pairs = 50;
        for round in 0..10_000u32 {
            for r in 0..pairs {
                f.retract_scalar(o(1), o(100 + r), &[]);
                f.assert_scalar(o(1), o(100 + r), &[], o(round % 7)).unwrap();
            }
        }
        assert!(f.journal.log.len() <= pairs as usize, "{}", f.journal.log.len());
        let mark = f.mutation_len();
        for r in 0..pairs {
            f.retract_scalar(o(1), o(100 + r), &[]);
        }
        assert_eq!(f.journal.log.len(), mark + pairs as usize);
    }

    /// Receivers at the edges of a bit word and of a bit block, under two
    /// methods, fold apart: each pair is journaled once per span.
    #[test]
    fn the_journal_folds_each_pair_apart_across_bit_blocks() {
        let mut f = Facts::new();
        let receivers = [0, 63, 64, 511, 512, 1023, 1024, u32::MAX - 1];
        for _ in 0..3 {
            for method in [1, 2] {
                for &r in &receivers {
                    f.retract_scalar(o(method), o(r), &[]);
                    f.assert_scalar(o(method), o(r), &[], o(7)).unwrap();
                }
            }
        }
        let journaled: BTreeSet<(Oid, Oid)> = f.mutations_since(0).collect();
        assert_eq!(f.mutations_since(0).count(), 2 * receivers.len());
        assert_eq!(journaled.len(), 2 * receivers.len());
    }

    /// A reader may take its mark from a clone and go on with the original,
    /// or the other way round: neither copy folds across the clone.
    #[test]
    fn a_clone_is_a_span_boundary_in_both_copies() {
        let mut f = Facts::new();
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        let mut copy = f.clone();
        for facts in [&mut f, &mut copy] {
            facts.retract_scalar(o(1), o(10), &[]);
            assert_eq!(facts.mutations_since(1).collect::<Vec<_>>(), [(o(1), o(10))]);
        }
    }

    #[test]
    fn scalar_conflict_is_an_error() {
        let mut f = Facts::new();
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        assert!(f.assert_scalar(o(1), o(10), &[], o(21)).is_err());
    }

    #[test]
    fn scalar_args_distinguish_applications() {
        let mut f = Facts::new();
        // john.salary@(1993) and john.salary@(1994) are different applications.
        f.assert_scalar(o(1), o(10), &[o(1993)], o(50)).unwrap();
        f.assert_scalar(o(1), o(10), &[o(1994)], o(60)).unwrap();
        assert_eq!(f.scalar_result(o(1), o(10), &[o(1993)]), Some(o(50)));
        assert_eq!(f.scalar_result(o(1), o(10), &[o(1994)]), Some(o(60)));
        assert_eq!(f.scalar_result(o(1), o(10), &[]), None);
    }

    #[test]
    fn set_assert_and_lookup() {
        let mut f = Facts::new();
        assert!(f.assert_set_member(o(2), o(10), &[], o(30)).is_new());
        assert!(f.assert_set_member(o(2), o(10), &[], o(31)).is_new());
        assert!(!f.assert_set_member(o(2), o(10), &[], o(30)).is_new());
        let members = f.set_result(o(2), o(10), &[]).unwrap();
        assert_eq!(members.len(), 2);
        assert!(members.contains(&o(30)));
        assert_eq!(f.num_set_applications(), 1);
        assert_eq!(f.num_set_members(), 2);
    }

    #[test]
    fn bulk_set_members_merge_new_ones_and_log_them_in_member_order() {
        let mut f = Facts::new();
        f.assert_set_member(o(2), o(10), &[], o(31));
        let snap = f.clone();
        // 31 is stored; 30, 32 and 40 are new.
        assert_eq!(f.assert_set_members(o(2), o(10), &[], &[o(30), o(31), o(32), o(40)]), 3);
        assert_eq!(
            f.set_result(o(2), o(10), &[]).unwrap().as_slice(),
            &[o(30), o(31), o(32), o(40)]
        );
        let log: Vec<Oid> = f.set_members_since(1).map(|(_, m)| m).collect();
        assert_eq!(log, [o(30), o(32), o(40)]);
        assert_eq!(
            f.mutations_since(1).collect::<Vec<_>>(),
            [(o(2), o(10))],
            "one pair, journaled once after the clone"
        );
        assert_eq!(
            (f.num_set_members(), f.set_facts_containing(o(2), o(32)).count()),
            (4, 1)
        );
        // A batch of re-assertions changes nothing and detaches nothing —
        // not even the sealed chunk holding the application's row.
        for r in 100..100 + CHUNK as u32 {
            f.declare_set(o(3), o(r), &[]);
        }
        let again = f.clone();
        assert_eq!(f.assert_set_members(o(2), o(10), &[], &[o(30), o(40)]), 0);
        assert_eq!(f.sets.rows.detached_from(&again.sets.rows), 0);
        // An empty batch does not define its application.
        assert_eq!(f.assert_set_members(o(2), o(11), &[o(7)], &[]), 0);
        assert_eq!(f.set_result(o(2), o(11), &[o(7)]), None);
        assert_eq!(f.assert_set_members(o(2), o(11), &[o(7)], &[o(1), o(2)]), 2);
        assert_eq!(f.num_set_applications(), CHUNK + 2);
        assert_eq!(snap.set_result(o(2), o(10), &[]).unwrap().as_slice(), &[o(31)]);
    }

    #[test]
    fn declared_empty_set_is_defined() {
        let mut f = Facts::new();
        assert_eq!(f.set_result(o(2), o(10), &[]), None);
        f.declare_set(o(2), o(10), &[]);
        assert_eq!(f.set_result(o(2), o(10), &[]).map(|s| s.len()), Some(0));
        // declaring again is a no-op
        f.declare_set(o(2), o(10), &[]);
        assert_eq!(f.num_set_applications(), 1);
    }

    #[test]
    fn method_indexes() {
        let mut f = Facts::new();
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.assert_scalar(o(1), o(11), &[], o(20)).unwrap();
        f.assert_scalar(o(1), o(12), &[], o(21)).unwrap();
        f.assert_scalar(o(9), o(10), &[], o(20)).unwrap();
        assert_eq!(f.scalar_facts_of_method(o(1)).count(), 3);
        assert_eq!(f.scalar_facts_with_result(o(1), o(20)).count(), 2);
        assert_eq!(f.scalar_facts_of_receiver(o(10)).count(), 2);
        assert_eq!(f.scalar_facts().count(), 4);

        f.assert_set_member(o(2), o(10), &[], o(30));
        f.assert_set_member(o(2), o(11), &[], o(30));
        f.assert_set_member(o(2), o(11), &[], o(31));
        assert_eq!(f.set_facts_of_method(o(2)).count(), 2);
        assert_eq!(f.set_facts_containing(o(2), o(30)).count(), 2);
        assert_eq!(f.set_facts_containing(o(2), o(31)).count(), 1);
        assert_eq!(f.set_facts_of_receiver(o(11)).count(), 1);
        assert_eq!(f.set_facts().count(), 2);

        // The counts are the lengths of the lists the walks above read —
        // inline or chunked, and after a retraction.
        for r in 40..50 {
            f.assert_scalar(o(1), o(r), &[], o(21)).unwrap();
            f.assert_set_member(o(2), o(r), &[], o(31));
        }
        f.retract_scalar(o(1), o(10), &[]);
        f.retract_set_member(o(2), o(11), &[], o(30));
        assert_eq!(f.count_scalar_of_method(o(1)), f.scalar_facts_of_method(o(1)).count());
        assert_eq!(f.count_scalar_of_method(o(1)), 12);
        assert_eq!(
            (
                f.count_scalar_with_result(o(1), o(20)),
                f.count_scalar_with_result(o(1), o(21))
            ),
            (1, 11)
        );
        assert_eq!(f.count_scalar_with_result(o(1), o(99)), 0);
        assert_eq!(f.count_set_of_method(o(2)), f.set_facts_of_method(o(2)).count());
        assert_eq!(f.count_set_of_method(o(7)), 0);
        assert_holders_are_filtered(&f);
    }

    /// `set_facts_containing` of every method and member is the brute-force
    /// filter of every set fact, in creation order.
    fn assert_holders_are_filtered(f: &Facts) {
        let methods: BTreeSet<Oid> = f.set_facts().map(|s| s.method).collect();
        let members: BTreeSet<Oid> = f.set_facts().flat_map(|s| s.members.iter().copied()).collect();
        for &m in &methods {
            for &x in members.iter().chain([&o(999)]) {
                let brute: Vec<SetFactView<'_>> = f
                    .set_facts()
                    .filter(|s| s.method == m && s.members.contains(&x))
                    .collect();
                assert_eq!(f.set_facts_containing(m, x).collect::<Vec<_>>(), brute, "{m} {x}");
            }
        }
    }

    /// After histories of single and bulk asserts and retractions over a
    /// few methods, receivers, argument tuples and members — on the tables
    /// and on a clone written after the split — the holders of every member
    /// are the filter of the facts.
    #[test]
    fn holders_of_a_member_are_the_filtered_facts_after_any_history() {
        let mut state = 7u64;
        let mut draw = |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32 % bound
        };
        for _ in 0..20 {
            let mut f = Facts::new();
            let mut clone = None;
            for step in 0..300 {
                let (m, r, x) = (o(1 + draw(3)), o(10 + draw(8)), o(30 + draw(12)));
                let args = [o(5)];
                let args = &args[..draw(2) as usize];
                match draw(4) {
                    0 | 1 => {
                        f.assert_set_member(m, r, args, x);
                    }
                    2 => {
                        let mut batch: Vec<Oid> = (0..draw(5)).map(|_| o(30 + draw(12))).collect();
                        batch.sort();
                        batch.dedup();
                        f.assert_set_members(m, r, args, &batch);
                    }
                    _ => {
                        f.retract_set_member(m, r, args, x);
                    }
                }
                if step == 150 {
                    clone = Some(f.clone());
                }
            }
            assert_holders_are_filtered(&f);
            let mut clone = clone.expect("split at step 150");
            clone.retract_set_member(o(1), o(10), &[], o(30));
            clone.assert_set_member(o(2), o(17), &[o(5)], o(41));
            assert_holders_are_filtered(&clone);
            assert_holders_are_filtered(&f);
        }
    }

    #[test]
    fn compound_method_receiver_index_spans_argument_tuples() {
        let mut f = Facts::new();
        // Three scalar applications of method 1 on receiver 10 with distinct
        // argument tuples, plus noise on other keys.
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.assert_scalar(o(1), o(10), &[o(1993)], o(21)).unwrap();
        f.assert_scalar(o(1), o(10), &[o(1994)], o(22)).unwrap();
        f.assert_scalar(o(1), o(11), &[], o(23)).unwrap();
        f.assert_scalar(o(2), o(10), &[], o(24)).unwrap();
        let results: BTreeSet<Oid> = f
            .scalar_facts_of_method_receiver(o(1), o(10))
            .map(|s| s.result)
            .collect();
        assert_eq!(results, [o(20), o(21), o(22)].into_iter().collect());
        assert_eq!(f.scalar_facts_of_method_receiver(o(1), o(11)).count(), 1);
        assert_eq!(f.scalar_facts_of_method_receiver(o(9), o(10)).count(), 0);

        f.assert_set_member(o(3), o(10), &[], o(30));
        f.assert_set_member(o(3), o(10), &[o(7)], o(31));
        f.assert_set_member(o(3), o(11), &[], o(32));
        assert_eq!(f.set_facts_of_method_receiver(o(3), o(10)).count(), 2);
        assert_eq!(f.set_facts_of_method_receiver(o(3), o(12)).count(), 0);
    }

    #[test]
    fn compound_enumeration_is_zero_arg_first_then_args_order() {
        let mut f = Facts::new();
        // Asserted out of order: the columnar rows stay sorted by tuple.
        f.assert_scalar(o(1), o(10), &[o(1994)], o(22)).unwrap();
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.assert_scalar(o(1), o(10), &[o(1993)], o(21)).unwrap();
        let results: Vec<Oid> = f
            .scalar_facts_of_method_receiver(o(1), o(10))
            .map(|s| s.result)
            .collect();
        assert_eq!(results, vec![o(20), o(21), o(22)]);
        // The slot table still reports assertion order globally.
        let global: Vec<Oid> = f.scalar_facts().map(|s| s.result).collect();
        assert_eq!(global, vec![o(22), o(20), o(21)]);
    }

    #[test]
    fn scalar_indices_are_insertion_ordered_generation_stamps() {
        let mut f = Facts::new();
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        let mark = f.num_scalar();
        f.assert_scalar(o(1), o(11), &[], o(21)).unwrap();
        f.assert_scalar(o(2), o(10), &[o(5)], o(22)).unwrap();
        assert_eq!(f.scalar_index(o(1), o(10), &[]), Some(0));
        assert!(f.scalar_index(o(1), o(11), &[]).unwrap() >= mark);
        assert!(f.scalar_index(o(2), o(10), &[o(5)]).unwrap() >= mark);
        assert_eq!(f.scalar_index(o(2), o(10), &[]), None);
        // The slice [mark..] is exactly the facts asserted after the mark.
        let since: Vec<Oid> = (mark..f.num_scalar()).map(|i| f.scalar_fact_at(i).result).collect();
        assert_eq!(since, vec![o(21), o(22)]);
    }

    #[test]
    fn generation_stamps_survive_out_of_order_tuples() {
        let mut f = Facts::new();
        // The second assertion lands *before* the first in the application's
        // sorted rows ([] < [5]); the global stamps must stay in assertion
        // order regardless.
        f.assert_scalar(o(1), o(10), &[o(5)], o(20)).unwrap();
        let mark = f.num_scalar();
        f.assert_scalar(o(1), o(10), &[], o(21)).unwrap();
        assert_eq!(f.scalar_index(o(1), o(10), &[o(5)]), Some(0));
        assert_eq!(f.scalar_index(o(1), o(10), &[]), Some(mark));
        assert_eq!(f.scalar_fact_at(0).result, o(20));
        assert_eq!(f.scalar_fact_at(mark).result, o(21));
    }

    #[test]
    fn set_member_log_yields_delta_slices() {
        let mut f = Facts::new();
        f.assert_set_member(o(2), o(10), &[], o(30));
        f.assert_set_member(o(2), o(10), &[], o(31));
        let mark = f.num_set_member_inserts();
        assert_eq!(mark, 2);
        // Re-asserting an existing member must not grow the log.
        f.assert_set_member(o(2), o(10), &[], o(30));
        assert_eq!(f.num_set_member_inserts(), mark);
        f.assert_set_member(o(2), o(11), &[], o(32));
        f.assert_set_member(o(4), o(10), &[o(7)], o(33));
        let delta: Vec<(Oid, Oid, Oid)> = f
            .set_members_since(mark)
            .map(|(idx, member)| {
                let fact = f.set_fact_at(idx);
                (fact.method, fact.receiver, member)
            })
            .collect();
        assert_eq!(delta, vec![(o(2), o(11), o(32)), (o(4), o(10), o(33))]);
        // A mark beyond the log is an empty slice, not a panic.
        assert_eq!(f.set_members_since(1_000).count(), 0);
        assert_eq!(f.set_members_since(f.num_set_member_inserts()).count(), 0);
    }

    #[test]
    fn set_applications_keep_creation_indices_and_list_in_tuple_order() {
        let mut f = Facts::new();
        // Three tuples of one pair, opened out of tuple order.
        for (args, member) in [(&[o(5)][..], o(30)), (&[], o(31)), (&[o(3)], o(32))] {
            f.assert_set_member(o(2), o(10), args, member);
        }
        let index = |args: &[Oid]| f.set_index(o(2), o(10), args);
        assert_eq!(
            [index(&[o(5)]), index(&[]), index(&[o(3)])],
            [Some(0), Some(1), Some(2)]
        );
        let listed: Vec<(&[Oid], Oid)> = f
            .set_facts_of_method_receiver(o(2), o(10))
            .map(|s| (s.args, s.members[0]))
            .collect();
        assert_eq!(listed, [(&[][..], o(31)), (&[o(3)], o(32)), (&[o(5)], o(30))]);
        // The log's application indices resolve to the rows they name, and
        // global enumeration is creation order.
        let logged: Vec<(Oid, &[Oid])> = f
            .set_members_since(0)
            .map(|(app, member)| (member, f.set_fact_at(app).args))
            .collect();
        assert_eq!(logged, [(o(30), &[o(5)][..]), (o(31), &[]), (o(32), &[o(3)])]);
        let created: Vec<Oid> = f.set_facts().map(|s| s.members[0]).collect();
        assert_eq!(created, [o(30), o(31), o(32)]);
    }

    #[test]
    fn bounded_window_slices_exclude_later_entries() {
        let mut f = Facts::new();
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.assert_set_member(o(2), o(10), &[], o(30));
        let lo_scalar = f.num_scalar();
        let lo_members = f.num_set_member_inserts();
        f.assert_scalar(o(1), o(11), &[], o(21)).unwrap();
        f.assert_set_member(o(2), o(11), &[], o(31));
        let hi_scalar = f.num_scalar();
        let hi_members = f.num_set_member_inserts();
        // Entries past the upper watermark belong to the next window.
        f.assert_scalar(o(1), o(12), &[], o(22)).unwrap();
        f.assert_set_member(o(2), o(12), &[], o(32));

        let scalars: Vec<(usize, Oid)> = f
            .scalar_facts_in(lo_scalar, hi_scalar)
            .map(|(i, fact)| (i, fact.receiver))
            .collect();
        assert_eq!(scalars, vec![(1, o(11))]);
        let members: Vec<Oid> = f.set_members_in(lo_members, hi_members).map(|(_, m)| m).collect();
        assert_eq!(members, vec![o(31)]);
        // Clamped bounds degrade to empty slices instead of panicking.
        assert_eq!(f.scalar_facts_in(10, 100).count(), 0);
        assert_eq!(f.set_members_in(5, 2).count(), 0);
        assert_eq!(f.scalar_facts_in(0, f.num_scalar()).count(), 3);
    }

    #[test]
    fn retract_scalar_removes_the_fact_and_reports_its_result() {
        let mut f = Facts::new();
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.assert_scalar(o(1), o(11), &[], o(21)).unwrap();
        assert_eq!(f.retract_scalar(o(1), o(10), &[]), Some(o(20)));
        assert_eq!(f.retract_scalar(o(1), o(10), &[]), None, "already gone");
        assert_eq!(f.scalar_result(o(1), o(10), &[]), None);
        assert_eq!(f.scalar_result(o(1), o(11), &[]), Some(o(21)));
        assert_eq!(f.num_scalar(), 1);
        // The fact can now be re-asserted with a different result.
        f.assert_scalar(o(1), o(10), &[], o(99)).unwrap();
        assert_eq!(f.scalar_result(o(1), o(10), &[]), Some(o(99)));
    }

    #[test]
    fn retract_scalar_keeps_every_index_consistent_after_the_swap() {
        let mut f = Facts::new();
        // Three facts; retracting the first forces the last to move into its slot.
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.assert_scalar(o(1), o(11), &[], o(20)).unwrap();
        f.assert_scalar(o(3), o(12), &[o(7)], o(22)).unwrap();
        assert_eq!(f.retract_scalar(o(1), o(10), &[]), Some(o(20)));
        // the moved fact is still reachable through every index
        assert_eq!(f.scalar_result(o(3), o(12), &[o(7)]), Some(o(22)));
        assert_eq!(f.scalar_facts_of_method(o(3)).count(), 1);
        assert_eq!(f.scalar_facts_with_result(o(3), o(22)).count(), 1);
        assert_eq!(f.scalar_facts_of_receiver(o(12)).count(), 1);
        assert_eq!(f.scalar_facts_of_method(o(1)).count(), 1);
        assert_eq!(f.scalar_facts_with_result(o(1), o(20)).count(), 1);
        assert_eq!(f.scalar_facts_of_receiver(o(10)).count(), 0);
        assert_eq!(f.scalar_facts().count(), 2);
    }

    #[test]
    fn retract_scalar_within_one_pair_keeps_the_slot_table_consistent() {
        let mut f = Facts::new();
        // Three rows of one pair; retract the middle one by tuple order.
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.assert_scalar(o(1), o(10), &[o(3)], o(21)).unwrap();
        f.assert_scalar(o(1), o(10), &[o(5)], o(22)).unwrap();
        assert_eq!(f.retract_scalar(o(1), o(10), &[o(3)]), Some(o(21)));
        assert_eq!(f.num_scalar(), 2);
        assert_eq!(f.scalar_result(o(1), o(10), &[]), Some(o(20)));
        assert_eq!(f.scalar_result(o(1), o(10), &[o(5)]), Some(o(22)));
        // Every slot resolves to a live row.
        let results: BTreeSet<Oid> = f.scalar_facts().map(|s| s.result).collect();
        assert_eq!(results, [o(20), o(22)].into_iter().collect());
        assert_eq!(f.scalar_facts_of_method_receiver(o(1), o(10)).count(), 2);
    }

    #[test]
    fn retract_set_member_removes_only_that_member() {
        let mut f = Facts::new();
        f.assert_set_member(o(2), o(10), &[], o(30));
        f.assert_set_member(o(2), o(10), &[], o(31));
        assert!(f.retract_set_member(o(2), o(10), &[], o(30)));
        assert!(!f.retract_set_member(o(2), o(10), &[], o(30)), "already gone");
        assert!(!f.retract_set_member(o(2), o(99), &[], o(30)), "undefined application");
        assert_eq!(f.set_result(o(2), o(10), &[]).unwrap().len(), 1);
        assert_eq!(f.num_set_members(), 1);
        assert_eq!(f.set_facts_containing(o(2), o(30)).count(), 0);
        assert_eq!(f.set_facts_containing(o(2), o(31)).count(), 1);
        // The application stays defined even when it becomes empty.
        assert!(f.retract_set_member(o(2), o(10), &[], o(31)));
        assert_eq!(f.set_result(o(2), o(10), &[]).map(|s| s.len()), Some(0));
    }

    #[test]
    fn cloned_tables_share_set_rows_until_mutated() {
        let mut f = Facts::new();
        // Two sealed chunks of set rows.
        for r in 0..2 * CHUNK as u32 {
            f.assert_set_member(o(2), o(r), &[], o(30));
        }
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        let snap = f.clone();
        assert_eq!(f.sets.rows.detached_from(&snap.sets.rows), 0);
        assert_eq!(f.scalar.dir.detached_from(&snap.scalar.dir), 0);
        // Mutating one side detaches only the chunk of the touched row.
        f.assert_set_member(o(2), o(10), &[], o(31));
        assert_eq!(f.sets.rows.detached_from(&snap.sets.rows), 1);
        assert_eq!(f.scalar.dir.detached_from(&snap.scalar.dir), 0);
        assert_eq!(snap.set_result(o(2), o(10), &[]).unwrap().len(), 1);
        assert_eq!(f.set_result(o(2), o(10), &[]).unwrap().len(), 2);
    }

    /// Every scalar fact of `f`, checked against all the ways to reach it:
    /// its slot, the point probes, its application's rows.
    fn assert_scalar_rows_resolve(f: &Facts) {
        for (slot, fact) in f.scalar_facts().enumerate() {
            let (m, r, args) = (fact.method, fact.receiver, fact.args);
            assert_eq!(f.scalar_index(m, r, args), Some(slot));
            assert_eq!(f.scalar_result(m, r, args), Some(fact.result));
            assert_eq!(f.scalar_fact_at(slot), fact);
            let tuples: Vec<&[Oid]> = f.scalar_facts_of_method_receiver(m, r).map(|g| g.args).collect();
            assert!(tuples.windows(2).all(|w| w[0] < w[1]), "{tuples:?}");
            assert!(tuples.contains(&args));
        }
    }

    #[test]
    fn an_application_of_several_rows_keeps_them_in_tuple_order() {
        let mut f = Facts::new();
        // Six argument tuples and the zero-argument row, out of order.
        for k in [5, 2, 9, 1, 7, 3] {
            f.assert_scalar(o(1), o(10), &[o(k), o(k + 1)], o(100 + k)).unwrap();
        }
        f.assert_scalar(o(1), o(10), &[], o(100)).unwrap();
        assert!(matches!(f.scalar.dir.get(&(o(1), o(10))), Some(AppRows::Many(_))));
        let results = |f: &Facts| -> Vec<u32> {
            f.scalar_facts_of_method_receiver(o(1), o(10))
                .map(|s| s.result.0)
                .collect()
        };
        assert_eq!(results(&f), [100, 101, 102, 103, 105, 107, 109]);
        assert_scalar_rows_resolve(&f);
        // A clone shares the slot list until one side writes it.
        let snap = f.clone();
        let list = |f: &Facts| match f.scalar.dir.get(&(o(1), o(10))) {
            Some(AppRows::Many(list)) => Arc::as_ptr(list),
            _ => unreachable!("several rows"),
        };
        assert_eq!(list(&f), list(&snap));
        assert_eq!(f.retract_scalar(o(1), o(10), &[o(5), o(6)]), Some(o(105)));
        assert_eq!(f.retract_scalar(o(1), o(10), &[]), Some(o(100)));
        assert_ne!(list(&f), list(&snap));
        assert_eq!(results(&f), [101, 102, 103, 107, 109]);
        assert_eq!(results(&snap), [100, 101, 102, 103, 105, 107, 109]);
        assert_scalar_rows_resolve(&f);
        assert_scalar_rows_resolve(&snap);
        // A second row turns an only row into a list, and the last row's
        // retraction removes the entry.
        f.assert_scalar(o(2), o(10), &[o(4)], o(1)).unwrap();
        assert!(matches!(f.scalar.dir.get(&(o(2), o(10))), Some(AppRows::One(_))));
        f.assert_scalar(o(2), o(10), &[], o(0)).unwrap();
        let second: Vec<u32> = f
            .scalar_facts_of_method_receiver(o(2), o(10))
            .map(|s| s.result.0)
            .collect();
        assert_eq!(second, [0, 1]);
        assert_scalar_rows_resolve(&f);
        assert!(f.retract_scalar(o(2), o(10), &[]).is_some());
        assert!(f.retract_scalar(o(2), o(10), &[o(4)]).is_some());
        assert!(f.scalar.dir.get(&(o(2), o(10))).is_none());
        assert_scalar_rows_resolve(&f);
    }

    #[test]
    fn argument_tuples_of_any_length_read_back_and_survive_a_clone() {
        let mut f = Facts::new();
        // Wider than a chunk of the slot table: a tuple has no length bound.
        let wide: Vec<Oid> = (0..2 * CHUNK as u32 + 1).map(o).collect();
        assert!(f.assert_scalar(o(2), o(0), &wide, o(1)).unwrap().is_new());
        assert!(!f.assert_scalar(o(2), o(0), &wide, o(1)).unwrap().is_new());
        assert!(f.assert_scalar(o(2), o(0), &wide[..CHUNK + 1], o(2)).unwrap().is_new());
        assert!(f.assert_scalar(o(2), o(0), &wide, o(3)).is_err());
        assert_eq!(f.scalar_result(o(2), o(0), &wide), Some(o(1)));
        assert_eq!(f.scalar_result(o(2), o(0), &wide[..CHUNK + 1]), Some(o(2)));
        assert_eq!(f.scalar_result(o(2), o(0), &wide[..CHUNK]), None);
        let tuples: Vec<usize> = f
            .scalar_facts_of_method_receiver(o(2), o(0))
            .map(|s| s.args.len())
            .collect();
        assert_eq!(tuples, [CHUNK + 1, 2 * CHUNK + 1]);
        assert_scalar_rows_resolve(&f);
        // A clone keeps the tuples the original retracts.
        let snap = f.clone();
        assert_eq!(f.retract_scalar(o(2), o(0), &wide), Some(o(1)));
        assert_eq!(f.scalar_result(o(2), o(0), &wide), None);
        assert_eq!(snap.scalar_result(o(2), o(0), &wide), Some(o(1)));
        assert_eq!(snap.scalar_fact_at(0).args, &wide[..]);
        assert_scalar_rows_resolve(&f);
        assert_scalar_rows_resolve(&snap);
    }

    #[test]
    fn a_scalar_write_to_a_clone_detaches_a_constant_number_of_parts() {
        let mut a = Facts::new();
        // Not a multiple of the shard target: one more key doubles no map.
        for k in 0..7 * CHUNK as u32 {
            a.assert_scalar(o(1), o(k), &[], o(k % 7)).unwrap();
        }
        let mut b = a.clone();
        assert_eq!(b.detached_from(&a), 0);
        // A new fact appends a row: its application's directory shard and
        // one shard per posting index.
        b.assert_scalar(o(2), o(3), &[], o(4)).unwrap();
        assert!(b.detached_from(&a) <= 4, "{}", b.detached_from(&a));
        // A re-assertion and a retraction that misses detach nothing.
        let mut c = a.clone();
        c.assert_scalar(o(1), o(5), &[], o(5)).unwrap();
        assert!(c.retract_scalar(o(1), o(5), &[o(9)]).is_none());
        assert_eq!(c.detached_from(&a), 0);
    }

    #[test]
    fn retraction_counter_is_monotone_and_counts_only_successes() {
        let mut f = Facts::new();
        f.assert_scalar(o(1), o(10), &[], o(20)).unwrap();
        f.assert_set_member(o(2), o(10), &[], o(30));
        assert_eq!(f.num_retractions(), 0, "assertions do not count");
        assert_eq!(f.retract_scalar(o(1), o(10), &[]), Some(o(20)));
        assert_eq!(f.num_retractions(), 1);
        assert_eq!(f.retract_scalar(o(1), o(10), &[]), None, "no-op misses do not count");
        assert!(!f.retract_set_member(o(2), o(10), &[], o(99)));
        assert_eq!(f.num_retractions(), 1);
        assert!(f.retract_set_member(o(2), o(10), &[], o(30)));
        assert_eq!(f.num_retractions(), 2, "monotone even though the tables shrank");
    }
}
