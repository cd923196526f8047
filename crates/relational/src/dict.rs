//! The global term dictionary: IRI/literal text ⇄ `u64` id.
//!
//! Every [`Value::Text`](crate::Value::Text) in the engine carries a
//! [`Term`] — the interned text plus its dictionary id — so equality and
//! hashing on the hot path (hash-join probes, semi-join `IN`-set
//! membership, shard routing) are O(1) id operations instead of string
//! hashing, and the fragment wire ships ids instead of lexical terms.
//!
//! The dictionary is **append-only**: an id, once assigned, maps to the
//! same text forever, and equal texts always intern to the same id. That
//! is what makes id-based `Eq`/`Hash` sound process-wide and lets
//! concurrent readers resolve ids without coordination. Id `0` is
//! reserved (it encodes NULL in columnar batches); real ids start at 1.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, LazyLock, RwLock};

/// An interned string: the dictionary id plus a shared handle on the text.
///
/// `Eq`/`Hash` go through the id (O(1), no string traversal); `Ord`
/// compares the text so sort orders stay lexical, matching the engine's
/// pre-interning semantics.
#[derive(Clone)]
pub struct Term {
    id: u64,
    text: Arc<str>,
}

impl Term {
    /// Interns `s` in the global dictionary and returns its term.
    pub fn intern(s: &str) -> Term {
        TermDict::global().intern(s)
    }

    /// The dictionary id (never 0).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The interned text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// A zero-copy handle on the interned text (refcount bump, no clone).
    pub fn text_arc(&self) -> Arc<str> {
        Arc::clone(&self.text)
    }
}

impl Deref for Term {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl AsRef<str> for Term {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

impl PartialEq for Term {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Term {}

impl std::hash::Hash for Term {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Term {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexical, not by id: sorting interned values must behave exactly
        // like sorting their texts.
        self.text.cmp(&other.text)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}#{}", &*self.text, self.id)
    }
}

/// The append-only text ⇄ id store behind [`Term`].
#[derive(Default)]
pub struct TermDict {
    inner: RwLock<DictInner>,
}

#[derive(Default)]
struct DictInner {
    ids: HashMap<Arc<str>, u64>,
    /// `terms[i]` is the text of id `i + 1` (id 0 is reserved).
    terms: Vec<Arc<str>>,
    /// Summed text bytes of `terms` — nothing is ever removed, so this
    /// only grows.
    bytes: u64,
}

static GLOBAL: LazyLock<TermDict> = LazyLock::new(TermDict::default);

impl TermDict {
    /// The process-wide dictionary every [`Value::Text`](crate::Value) and
    /// columnar batch codes against. One global instance is what makes
    /// ids a valid wire currency between worker threads: encoder and
    /// decoder share the mapping by construction.
    pub fn global() -> &'static TermDict {
        &GLOBAL
    }

    /// Interns `s`, assigning the next id on first sight.
    pub fn intern(&self, s: &str) -> Term {
        // Fast path: shared read lock for the (overwhelmingly common)
        // already-interned case.
        {
            let inner = self.inner.read().expect("dict poisoned");
            if let Some(&id) = inner.ids.get(s) {
                return Term {
                    id,
                    text: Arc::clone(&inner.terms[(id - 1) as usize]),
                };
            }
        }
        let mut inner = self.inner.write().expect("dict poisoned");
        // Re-check under the write lock: another thread may have interned
        // `s` between our read and write acquisitions; both must get the
        // same id.
        if let Some(&id) = inner.ids.get(s) {
            return Term {
                id,
                text: Arc::clone(&inner.terms[(id - 1) as usize]),
            };
        }
        let text: Arc<str> = Arc::from(s);
        inner.bytes += s.len() as u64;
        inner.terms.push(Arc::clone(&text));
        let id = inner.terms.len() as u64;
        inner.ids.insert(Arc::clone(&text), id);
        Term { id, text }
    }

    /// Resolves an id minted by [`intern`](Self::intern); `None` for 0 or
    /// an id the dictionary never assigned.
    pub fn resolve(&self, id: u64) -> Option<Term> {
        if id == 0 {
            return None;
        }
        let inner = self.inner.read().expect("dict poisoned");
        inner.terms.get((id - 1) as usize).map(|text| Term {
            id,
            text: Arc::clone(text),
        })
    }

    /// Number of interned terms (the next id is `len() + 1`).
    pub fn len(&self) -> u64 {
        self.inner.read().expect("dict poisoned").terms.len() as u64
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Text bytes held by the interned terms (map and `Arc` overhead not
    /// counted).
    pub fn bytes(&self) -> u64 {
        self.inner.read().expect("dict poisoned").bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_text_same_id() {
        let a = Term::intern("http://example.org/sensor/1");
        let b = Term::intern("http://example.org/sensor/1");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "http://example.org/sensor/1");
    }

    #[test]
    fn distinct_texts_distinct_ids() {
        let a = Term::intern("dict-test-a");
        let b = Term::intern("dict-test-b");
        assert_ne!(a.id(), b.id());
        assert!(a < b, "order is lexical");
    }

    #[test]
    fn resolve_round_trips() {
        let t = Term::intern("dict-test-resolve");
        let back = TermDict::global().resolve(t.id()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.as_str(), "dict-test-resolve");
        assert!(TermDict::global().resolve(0).is_none());
        assert!(TermDict::global().resolve(u64::MAX).is_none());
    }

    /// Satellite coverage: concurrent interning of overlapping term sets
    /// must assign one stable id per text — no torn or duplicate
    /// assignments under the read-then-write race.
    #[test]
    fn concurrent_interning_is_id_stable() {
        let texts: Vec<String> = (0..64).map(|i| format!("dict-race-{i}")).collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let texts = texts.clone();
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    // Each thread walks the set from a different offset so
                    // first-intern races spread across the whole set.
                    for i in 0..texts.len() {
                        let s = &texts[(i + t * 8) % texts.len()];
                        let term = Term::intern(s);
                        assert_eq!(term.as_str(), s.as_str());
                        ids.push((s.clone(), term.id()));
                    }
                    ids
                })
            })
            .collect();
        let mut seen: HashMap<String, u64> = HashMap::new();
        for handle in handles {
            for (text, id) in handle.join().unwrap() {
                let prior = seen.entry(text.clone()).or_insert(id);
                assert_eq!(*prior, id, "{text} interned under two ids");
                assert_eq!(
                    TermDict::global().resolve(id).unwrap().as_str(),
                    text,
                    "id must resolve back to its text"
                );
            }
        }
        assert_eq!(seen.len(), texts.len());
    }
}
