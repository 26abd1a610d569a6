//! Copy-on-write containers: the two table shapes every [`Structure`]
//! table is built from, so that `Structure::clone` shares storage instead
//! of copying it.
//!
//! * [`CowVec`] — a vector cut into chunks of [`CHUNK`] elements, each
//!   behind an `Arc`.  Backs the dense tables and append-only logs
//!   (objects, the scalar and set row tables, insertion logs) and the
//!   posting lists too long to sit inline in their index.
//! * [`ShardMap`] — a hash map cut into shards of about [`SHARD_TARGET`]
//!   entries, each an `Arc`-shared `HashMap`, picked from the key's hash.
//!   Backs the name table (keyed by the name's SipHash), the scalar and set
//!   application directories, the five posting indexes (scalar facts by
//!   method, method and result, and receiver; set applications by method
//!   and receiver — none by member, so a member-bound lookup walks the
//!   method's applications), the is-a maps and the signature index.
//!
//! # Invariants
//!
//! * **Clone shares, write detaches.**  Cloning either container bumps one
//!   reference count per sealed chunk / shard; the only elements it copies
//!   are a `CowVec`'s unsealed tail, fewer than `CHUNK`.  A write
//!   (`make_mut`, `swap_remove`, `insert`, `remove`, …) first detaches the
//!   one chunk or shard it touches (`Arc::make_mut`: a copy of `CHUNK`
//!   elements, or of one shard, and only if a clone still shares it);
//!   `push` writes the owned tail and detaches nothing.  Every other chunk
//!   and shard stays shared.  Neither side of a clone ever observes the
//!   other's writes.  Dropping a clone frees only what it alone owned —
//!   its tails and the chunks and shards that were detached from it.
//! * **Reads never detach.**  `get`, indexing and iteration take `&self`;
//!   `ShardMap::get_mut` / `remove` probe before they detach, so a miss
//!   copies nothing.
//! * **`CowVec` order is position order.**  Every sealed chunk holds
//!   exactly `CHUNK` elements, so element `i` lives in chunk `i / CHUNK`
//!   at offset `i % CHUNK`; `iter` and `range` walk the chunks in position
//!   order, and `swap_remove` moves the last element into the hole exactly
//!   like `Vec::swap_remove`.  Positions double as watermarks and
//!   generation stamps upstream, so this is load-bearing.
//! * **`ShardMap` iteration order is unspecified** (shard by shard, each in
//!   its hash table's order; it changes when the map grows).  Every
//!   consumer that emits or compares sorts what it collects, as with
//!   `HashMap` before.
//! * **A sealed chunk is never resized.**  `pop` on an empty tail unseals
//!   the last chunk (one copy of `CHUNK` elements) and the push that fills
//!   the tail seals it again, so a vector whose length keeps crossing one
//!   chunk boundary pays a chunk copy per crossing.  The tables here grow,
//!   or shrink and grow by a few entries around a length that is a
//!   multiple of `CHUNK` once in `CHUNK` times.
//! * **An empty container owns no heap memory**: structures are built by
//!   the thousand in tests and sessions, most tables of most of them stay
//!   empty.
//!
//! Sizes are constants, not parameters: `CHUNK` bounds what one write can
//! copy, `SHARD_TARGET` does the same for maps; together they set how many
//! reference counts a clone bumps (≈ `len / CHUNK`, `len / SHARD_TARGET`).
//!
//! [`Structure`]: super::Structure

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

const CHUNK_BITS: u32 = 9;
/// Elements per [`CowVec`] chunk (a power of two): the most one write
/// copies.
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: usize = CHUNK - 1;

/// Average number of entries at which a [`ShardMap`] doubles its shard
/// count, i.e. shards hold between half of this and this on average.
/// Large on purpose: a probe into one of thousands of small tables misses
/// the cache where a probe into a few large ones does not (measured on the
/// read-only scans: 256 cost them 5-10 %, 1024 nothing), and detaching a
/// shard of plain keys and inline posting lists is one pass of copies.
pub(crate) const SHARD_TARGET: usize = 1024;

/// A chunked copy-on-write vector — see the module docs.
///
/// `full` holds the sealed chunks, each exactly [`CHUNK`] elements in one
/// shared allocation; `tail` is the growing last chunk (fewer than `CHUNK`
/// elements), sealed into `full` when it fills up.  The tail is owned, not
/// shared: a clone copies it (a bounded copy), and in exchange appending —
/// what the logs and posting lists do on every assertion — is a plain
/// `Vec::push` with no reference count to test.
#[derive(Debug, Clone)]
pub(crate) struct CowVec<T> {
    full: Vec<Arc<[T; CHUNK]>>,
    tail: Vec<T>,
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            full: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T> CowVec<T> {
    pub fn len(&self) -> usize {
        (self.full.len() << CHUNK_BITS) + self.tail.len()
    }

    pub fn is_empty(&self) -> bool {
        self.full.is_empty() && self.tail.is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        let c = i >> CHUNK_BITS;
        match self.full.get(c) {
            // In range by construction: a sealed chunk is `[T; CHUNK]`.
            Some(chunk) => Some(&chunk[i & CHUNK_MASK]),
            None if c == self.full.len() => self.tail.get(i & CHUNK_MASK),
            None => None,
        }
    }

    /// Every element, in position order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            cur: [].iter(),
            full: self.full.iter(),
            last: &self.tail,
        }
    }

    /// The elements at positions `[lo, hi)`, in position order, walking
    /// only the chunks the window overlaps.  Both bounds are clamped to the
    /// vector, so a window past the end is empty instead of a panic.
    pub fn range(&self, lo: usize, hi: usize) -> Iter<'_, T> {
        let hi = hi.min(self.len());
        let lo = lo.min(hi);
        // `hi <= len` puts `end` at most at the tail's chunk number.
        let (first, end) = (lo >> CHUNK_BITS, hi >> CHUNK_BITS);
        let chunk = |c: usize| self.full.get(c).map_or(&self.tail[..], |chunk| &chunk[..]);
        if first == end {
            return Iter {
                cur: chunk(first)[lo & CHUNK_MASK..hi & CHUNK_MASK].iter(),
                full: [].iter(),
                last: &[],
            };
        }
        Iter {
            cur: chunk(first)[lo & CHUNK_MASK..].iter(),
            full: self.full[first + 1..end].iter(),
            last: &chunk(end)[..hi & CHUNK_MASK],
        }
    }
}

impl<T: Clone> CowVec<T> {
    /// Mutable access to element `i`, detaching its chunk.  Panics when out
    /// of range, like indexing.
    pub fn make_mut(&mut self, i: usize) -> &mut T {
        let c = i >> CHUNK_BITS;
        if c < self.full.len() {
            let chunk = &mut self.full[c];
            // Not `Arc::make_mut`: its copy goes through a `[T; CHUNK]` on
            // the stack, and the stack probe for that frame is paid by
            // every call, shared or not (measured per call: 60 ns at four
            // times this chunk size, 200 ns at sixteen times, against the
            // 8 ns of the uniqueness test below).
            if Arc::strong_count(chunk) != 1 {
                *chunk = copy_of(chunk);
            }
            let own = Arc::get_mut(chunk).expect("a sealed chunk has no weak handles");
            return &mut own[i & CHUNK_MASK];
        }
        assert!(i < self.len(), "CowVec index out of range");
        &mut self.tail[i & CHUNK_MASK]
    }

    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == CHUNK {
            let sealed: Arc<[T]> = std::mem::take(&mut self.tail).into();
            self.full
                .push(sealed.try_into().ok().expect("the tail holds CHUNK elements"));
        }
    }

    pub fn pop(&mut self) -> Option<T> {
        if self.tail.is_empty() {
            self.tail = self.full.pop()?.to_vec();
        }
        self.tail.pop()
    }

    /// Remove and return element `i`, moving the last element into its
    /// place (`Vec::swap_remove` semantics).  Detaches the chunk of `i`.
    /// Panics when out of range.
    pub fn swap_remove(&mut self, i: usize) -> T {
        let last = self.pop().expect("CowVec index out of range");
        if i == self.len() {
            last
        } else {
            std::mem::replace(self.make_mut(i), last)
        }
    }
}

/// A copy of a sealed chunk, cloned straight into its new allocation.
#[cold]
fn copy_of<T: Clone>(chunk: &[T; CHUNK]) -> Arc<[T; CHUNK]> {
    let copy: Arc<[T]> = chunk[..].into();
    copy.try_into().ok().expect("a copy is as long as its original")
}

impl<T> Index<usize> for CowVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        self.get(i).expect("CowVec index out of range")
    }
}

/// Position-order iterator over (a window of) a [`CowVec`]: the slice being
/// walked, the sealed chunks after it, and the final partial slice.
#[derive(Debug, Clone)]
pub(crate) struct Iter<'a, T> {
    cur: std::slice::Iter<'a, T>,
    full: std::slice::Iter<'a, Arc<[T; CHUNK]>>,
    last: &'a [T],
}

impl<T> Default for Iter<'_, T> {
    fn default() -> Self {
        Iter {
            cur: [].iter(),
            full: [].iter(),
            last: &[],
        }
    }
}

impl<T> Iter<'_, T> {
    /// Move `cur` on to the next slice to walk; `false` when none is left.
    fn advance(&mut self) -> bool {
        self.cur = match self.full.next() {
            Some(chunk) => chunk.iter(),
            None if self.last.is_empty() => return false,
            None => std::mem::take(&mut self.last).iter(),
        };
        true
    }
}

/// A plain slice walked as one window.
impl<'a, T> From<&'a [T]> for Iter<'a, T> {
    fn from(slice: &'a [T]) -> Self {
        Iter {
            cur: slice.iter(),
            ..Iter::default()
        }
    }
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.cur.next() {
                return Some(item);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cur.len() + (self.full.len() << CHUNK_BITS) + self.last.len();
        (n, Some(n))
    }

    /// Slice by slice, so that each search is the slice's own tight loop
    /// (retractions scan posting lists as long as the store).
    fn position<P: FnMut(&'a T) -> bool>(&mut self, mut predicate: P) -> Option<usize> {
        let mut before = 0;
        loop {
            let slice = self.cur.len();
            if let Some(at) = self.cur.position(&mut predicate) {
                return Some(before + at);
            }
            before += slice;
            if !self.advance() {
                return None;
            }
        }
    }

    fn fold<B, F: FnMut(B, &'a T) -> B>(self, init: B, mut f: F) -> B {
        let mut acc = self.cur.fold(init, &mut f);
        for chunk in self.full {
            acc = chunk.iter().fold(acc, &mut f);
        }
        self.last.iter().fold(acc, f)
    }
}

/// A multiplicative hasher for keys the program makes itself — `Oid`s,
/// pairs of them, and hashes already taken: one rotate-xor-multiply per
/// word, as in `rustc-hash`.  Not for keys that arrive from outside (it
/// has no secret): the name table hashes names with SipHash and keys its
/// map by the result.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FastHasher(u64);

pub(crate) type FastBuild = BuildHasherDefault<FastHasher>;

/// 2^64 / φ, odd: the usual multiplicative-hashing constant.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// A second odd constant, so that the bits that pick the shard are not the
/// bits the shard's own table probes with.
const PICK: u64 = 0xD6E8_FEB8_6659_FD93;

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(MIX);
    }

    fn finish(&self) -> u64 {
        // A product's high bits are its best mixed; fold them into the low
        // bits the table indexes buckets with.
        self.0 ^ (self.0 >> 32)
    }
}

/// A sharded copy-on-write hash map — see the module docs.  Shard pick and
/// in-shard probe both hash with [`FastHasher`].
#[derive(Debug, Clone)]
pub(crate) struct ShardMap<K, V> {
    /// A power-of-two number of shards, or none while the map is empty.
    shards: Vec<Arc<HashMap<K, V, FastBuild>>>,
    len: usize,
}

impl<K, V> Default for ShardMap<K, V> {
    fn default() -> Self {
        ShardMap {
            shards: Vec::new(),
            len: 0,
        }
    }
}

impl<K: Hash + Eq, V> ShardMap<K, V> {
    /// The shard `key` belongs to: the top bits of a second product of its
    /// fast hash, scaled to the shard count (0 while there are no shards).
    fn shard_of<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        let mut hasher = FastHasher::default();
        key.hash(&mut hasher);
        let top = hasher.0.wrapping_mul(PICK) >> 32;
        ((top * self.shards.len() as u64) >> 32) as usize
    }

    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards.get(self.shard_of(key))?.get(key)
    }

    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Every entry, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.shards.iter().flat_map(|shard| shard.iter())
    }

    /// Every value, in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.shards.iter().flat_map(|shard| shard.values())
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardMap<K, V> {
    /// Make room for `key` if it is a new one: double the shard count once
    /// the average shard holds [`SHARD_TARGET`] entries.  Doubling re-deals
    /// every entry (amortised like a hash table's own growth) and leaves no
    /// shard shared with earlier clones.
    fn reserve(&mut self, key: &K) {
        if self.len < self.shards.len() * SHARD_TARGET || self.contains_key(key) {
            return;
        }
        let old = std::mem::take(&mut self.shards);
        let shards = (2 * old.len()).max(1);
        self.shards = (0..shards)
            .map(|_| {
                Arc::new(HashMap::with_capacity_and_hasher(
                    self.len / shards,
                    FastBuild::default(),
                ))
            })
            .collect();
        for shard in old {
            let shard = Arc::try_unwrap(shard).unwrap_or_else(|shared| (*shared).clone());
            for (key, value) in shard {
                let i = self.shard_of(&key);
                Arc::get_mut(&mut self.shards[i])
                    .expect("a shard made above is not shared yet")
                    .insert(key, value);
            }
        }
    }

    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.reserve(&key);
        let i = self.shard_of(&key);
        let old = Arc::make_mut(&mut self.shards[i]).insert(key, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Mutable access to the value under `key`, inserting the default first
    /// if there is none.  Detaches the key's shard.
    pub fn get_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.reserve(&key);
        let i = self.shard_of(&key);
        match Arc::make_mut(&mut self.shards[i]).entry(key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                self.len += 1;
                entry.insert(V::default())
            }
        }
    }

    /// The shard to write `key` in, or `None` if the shard is shared with
    /// a clone and does not hold the key — a miss must not copy it.  (An
    /// unshared shard is handed out unprobed: the caller's own probe is
    /// then the only one.)
    fn shard_for_write<Q>(&mut self, key: &Q) -> Option<&mut HashMap<K, V, FastBuild>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.shard_of(key);
        let shard = self.shards.get_mut(i)?;
        if Arc::strong_count(shard) > 1 && !shard.contains_key(key) {
            return None;
        }
        Some(Arc::make_mut(shard))
    }

    /// Mutable access to the value under `key`; detaches the key's shard
    /// only if the key is present.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard_for_write(key)?.get_mut(key)
    }

    /// Remove `key`; detaches the key's shard only if the key is present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let removed = self.shard_for_write(key)?.remove(key);
        self.len -= usize::from(removed.is_some());
        removed
    }
}

/// Test-only view of the sharing between a container and a clone of it.
#[cfg(test)]
pub(crate) trait Sharing {
    /// The address of every chunk / shard, in order.
    fn parts(&self) -> Vec<*const ()>;

    /// How many of `self`'s chunks / shards are *not* the same allocation
    /// as the chunk / shard at the same place in `other`.
    fn detached_from(&self, other: &Self) -> usize {
        let theirs = other.parts();
        let mine = self.parts();
        (0..mine.len()).filter(|&i| theirs.get(i) != Some(&mine[i])).count()
    }
}

#[cfg(test)]
impl<T> Sharing for CowVec<T> {
    fn parts(&self) -> Vec<*const ()> {
        self.full.iter().map(|chunk| Arc::as_ptr(chunk).cast()).collect()
    }
}

#[cfg(test)]
impl<K, V> Sharing for ShardMap<K, V> {
    fn parts(&self) -> Vec<*const ()> {
        self.shards.iter().map(|shard| Arc::as_ptr(shard).cast()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Everything observable of a `CowVec`, held against its `Vec` model.
    fn assert_vec_matches(v: &CowVec<u32>, model: &[u32]) {
        assert_eq!(v.len(), model.len());
        assert_eq!(v.is_empty(), model.is_empty());
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), model);
        assert_eq!(v.iter().size_hint(), (model.len(), Some(model.len())));
        for probe in [model.first(), model.last(), model.get(model.len() / 2), Some(&u32::MAX)] {
            let probe = probe.copied().unwrap_or(0);
            assert_eq!(
                v.iter().position(|&x| x == probe),
                model.iter().position(|&x| x == probe)
            );
        }
        for i in [
            0,
            1,
            model.len() / 2,
            model.len().wrapping_sub(1),
            model.len(),
            model.len() + CHUNK,
        ] {
            assert_eq!(v.get(i), model.get(i), "get({i}) of {}", model.len());
        }
        let n = model.len();
        for (lo, hi) in [
            (0, n),
            (1, n),
            (0, n.saturating_sub(1)),
            (n / 3, 2 * n / 3),
            (n, n),
            (n + 5, 3),
            (0, usize::MAX),
        ] {
            let want = &model[lo.min(hi).min(n)..hi.min(n)];
            assert_eq!(
                v.range(lo, hi).copied().collect::<Vec<_>>(),
                want,
                "range({lo}, {hi}) of {n}"
            );
            assert_eq!(
                v.range(lo, hi).fold(0u64, |a, &x| a + u64::from(x)),
                want.iter().map(|&x| u64::from(x)).sum()
            );
        }
    }

    fn filled(n: usize) -> (CowVec<u32>, Vec<u32>) {
        let mut v = CowVec::default();
        let model: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
        for &x in &model {
            v.push(x);
        }
        (v, model)
    }

    #[test]
    fn an_empty_vector_owns_no_heap_memory() {
        let v: CowVec<u64> = CowVec::default();
        assert_eq!((v.full.capacity(), v.tail.capacity()), (0, 0));
        let m: ShardMap<u32, u32> = ShardMap::default();
        assert_eq!(m.shards.capacity(), 0);
    }

    #[test]
    fn chunk_boundary_sizes_behave_like_a_vec_on_both_sides_of_a_clone() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK + 7] {
            let (a, model) = filled(n);
            assert_vec_matches(&a, &model);
            // Each mutation on one side of a clone, the other side untouched.
            type Mutation = fn(&mut CowVec<u32>, &mut Vec<u32>);
            let mutations: [Mutation; 5] = [
                |v, m| {
                    v.push(7);
                    m.push(7);
                },
                |v, m| assert_eq!(v.pop(), m.pop()),
                |v, m| {
                    if !m.is_empty() {
                        assert_eq!(v.swap_remove(0), m.swap_remove(0));
                    }
                },
                |v, m| {
                    if let Some(last) = m.len().checked_sub(1) {
                        *v.make_mut(last) = 99;
                        m[last] = 99;
                        *v.make_mut(0) = 98;
                        m[0] = 98;
                    }
                },
                |v, m| {
                    for i in 0..CHUNK as u32 + 3 {
                        v.push(i);
                        m.push(i);
                    }
                    for _ in 0..2 * CHUNK {
                        assert_eq!(v.pop(), m.pop());
                    }
                },
            ];
            for mutate in mutations {
                let (mut b, mut b_model) = (a.clone(), model.clone());
                mutate(&mut b, &mut b_model);
                assert_vec_matches(&b, &b_model);
                assert_vec_matches(&a, &model);
                let (mut a2, mut a2_model) = (a.clone(), model.clone());
                let frozen = a2.clone();
                mutate(&mut a2, &mut a2_model);
                assert_vec_matches(&a2, &a2_model);
                assert_vec_matches(&frozen, &model);
            }
        }
    }

    #[test]
    fn a_clone_shares_every_sealed_chunk_and_a_write_detaches_one() {
        let (a, _) = filled(4 * CHUNK + 5);
        let mut b = a.clone();
        assert_eq!(b.detached_from(&a), 0);
        b.push(1);
        assert_eq!(b.detached_from(&a), 0, "a push writes the owned tail");
        *b.make_mut(CHUNK + 1) = 0;
        assert_eq!(b.detached_from(&a), 1);
        assert_eq!(a.detached_from(&b), 1);
        *b.make_mut(CHUNK + 2) = 0;
        assert_eq!(b.detached_from(&a), 1, "the chunk is its own now");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn writing_past_the_end_panics() {
        let (mut v, _) = filled(CHUNK + 2);
        *v.make_mut(CHUNK + 2) = 0;
    }

    #[derive(Debug, Clone)]
    enum VecOp {
        Push(u32),
        PushMany(usize),
        Pop,
        Write(usize, u32),
        SwapRemove(usize),
        Clone,
        Drop,
    }

    fn vec_op() -> impl Strategy<Value = VecOp> {
        prop_oneof![
            (0u32..1000).prop_map(VecOp::Push),
            (0u32..1000).prop_map(VecOp::Push),
            (1usize..2 * CHUNK).prop_map(VecOp::PushMany),
            (0usize..1).prop_map(|_| VecOp::Pop),
            (0usize..4 * CHUNK, 0u32..1000).prop_map(|(i, x)| VecOp::Write(i, x)),
            (0usize..4 * CHUNK, 0u32..1000).prop_map(|(i, x)| VecOp::Write(i, x)),
            (0usize..4 * CHUNK).prop_map(VecOp::SwapRemove),
            (0usize..1).prop_map(|_| VecOp::Clone),
            (0usize..1).prop_map(|_| VecOp::Drop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings over several live versions: every version
        /// always equals its own `Vec` model, whatever happened to the
        /// versions it was cloned from or into.
        #[test]
        fn cow_vec_versions_each_match_their_own_model(ops in prop::collection::vec((0usize..8, vec_op()), 0..60)) {
            let mut versions: Vec<(CowVec<u32>, Vec<u32>)> = vec![(CowVec::default(), Vec::new())];
            for (which, op) in ops {
                let at = which % versions.len();
                let (v, model) = &mut versions[at];
                match op {
                    VecOp::Push(x) => {
                        v.push(x);
                        model.push(x);
                    }
                    VecOp::PushMany(n) => {
                        for i in 0..n as u32 {
                            v.push(i);
                            model.push(i);
                        }
                    }
                    VecOp::Pop => prop_assert_eq!(v.pop(), model.pop()),
                    VecOp::Write(i, x) if !model.is_empty() => {
                        let i = i % model.len();
                        *v.make_mut(i) = x;
                        model[i] = x;
                    }
                    VecOp::SwapRemove(i) if !model.is_empty() => {
                        let i = i % model.len();
                        prop_assert_eq!(v.swap_remove(i), model.swap_remove(i));
                    }
                    VecOp::Write(..) | VecOp::SwapRemove(..) => {}
                    VecOp::Clone => {
                        let copy = versions[at].clone();
                        versions.push(copy);
                    }
                    VecOp::Drop if versions.len() > 1 => {
                        versions.swap_remove(at);
                    }
                    VecOp::Drop => {}
                }
                for (v, model) in &versions {
                    prop_assert_eq!(v.len(), model.len());
                }
            }
            for (v, model) in &versions {
                assert_vec_matches(v, model);
            }
        }
    }

    /// Everything observable of a `ShardMap`, held against its `HashMap`
    /// model (iteration order is unspecified: compared sorted).
    fn assert_map_matches(m: &ShardMap<u32, Vec<u32>>, model: &HashMap<u32, Vec<u32>>) {
        assert_eq!(m.len, model.len());
        let mut got: Vec<(u32, Vec<u32>)> = m.iter().map(|(&k, v)| (k, v.clone())).collect();
        got.sort();
        let mut want: Vec<(u32, Vec<u32>)> = model.iter().map(|(&k, v)| (k, v.clone())).collect();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(m.values().count(), model.len());
        for k in (0..40).chain(model.keys().copied().take(40)) {
            assert_eq!(m.get(&k), model.get(&k));
            assert_eq!(m.contains_key(&k), model.contains_key(&k));
        }
        assert!(m.shards.is_empty() || m.shards.len().is_power_of_two());
    }

    #[derive(Debug, Clone)]
    enum MapOp {
        Insert(u32, u32),
        InsertMany(u32, usize),
        Remove(u32),
        RemoveMany(u32, usize),
        Append(u32, u32),
        Edit(u32, u32),
        Clone,
        Drop,
    }

    fn map_op() -> impl Strategy<Value = MapOp> {
        let key = || 0u32..3 * SHARD_TARGET as u32;
        prop_oneof![
            (key(), 0u32..100).prop_map(|(k, x)| MapOp::Insert(k, x)),
            (key(), 1usize..2 * SHARD_TARGET).prop_map(|(k, n)| MapOp::InsertMany(k, n)),
            key().prop_map(MapOp::Remove),
            (key(), 1usize..SHARD_TARGET).prop_map(|(k, n)| MapOp::RemoveMany(k, n)),
            (key(), 0u32..100).prop_map(|(k, x)| MapOp::Append(k, x)),
            (key(), 0u32..100).prop_map(|(k, x)| MapOp::Edit(k, x)),
            (0usize..1).prop_map(|_| MapOp::Clone),
            (0usize..1).prop_map(|_| MapOp::Drop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings over several live versions, with key runs
        /// long enough to double the shard count a few times.
        #[test]
        fn shard_map_versions_each_match_their_own_model(ops in prop::collection::vec((0usize..8, map_op()), 0..50)) {
            type Version = (ShardMap<u32, Vec<u32>>, HashMap<u32, Vec<u32>>);
            let mut versions: Vec<Version> = vec![Default::default()];
            for (which, op) in ops {
                let at = which % versions.len();
                let (m, model) = &mut versions[at];
                match op {
                    MapOp::Insert(k, x) => prop_assert_eq!(m.insert(k, vec![x]), model.insert(k, vec![x])),
                    MapOp::InsertMany(k, n) => {
                        for k in k..k + n as u32 {
                            prop_assert_eq!(m.insert(k, vec![k]), model.insert(k, vec![k]));
                        }
                    }
                    MapOp::Remove(k) => prop_assert_eq!(m.remove(&k), model.remove(&k)),
                    MapOp::RemoveMany(k, n) => {
                        for k in k..k + n as u32 {
                            prop_assert_eq!(m.remove(&k), model.remove(&k));
                        }
                    }
                    MapOp::Append(k, x) => {
                        m.get_or_default(k).push(x);
                        model.entry(k).or_default().push(x);
                    }
                    MapOp::Edit(k, x) => {
                        let (got, want) = (m.get_mut(&k), model.get_mut(&k));
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            got.push(x);
                            want.push(x);
                        }
                    }
                    MapOp::Clone => {
                        let copy = versions[at].clone();
                        versions.push(copy);
                    }
                    MapOp::Drop if versions.len() > 1 => {
                        versions.swap_remove(at);
                    }
                    MapOp::Drop => {}
                }
            }
            for (m, model) in &versions {
                assert_map_matches(m, model);
            }
        }
    }

    #[test]
    fn a_map_write_detaches_one_shard_and_a_miss_detaches_none() {
        let mut a: ShardMap<u32, u32> = ShardMap::default();
        for k in 0..8 * SHARD_TARGET as u32 {
            a.insert(k, k);
        }
        assert!(a.shards.len() >= 8);
        let mut b = a.clone();
        assert_eq!(b.detached_from(&a), 0);
        assert_eq!(b.remove(&u32::MAX), None);
        assert!(b.get_mut(&u32::MAX).is_none());
        assert_eq!(b.detached_from(&a), 0, "probing a missing key copies nothing");
        *b.get_mut(&3).unwrap() = 0;
        assert_eq!(b.detached_from(&a), 1);
        assert_eq!((a.get(&3), b.get(&3)), (Some(&3), Some(&0)));
        b.insert(3, 1);
        assert_eq!(b.detached_from(&a), 1, "the shard is its own now");
    }
}
