//! Engine-level translation cache.
//!
//! Parse → classify → validate → translate is pure: the outcome depends
//! only on the sentence and the (immutable) catalog. Interactive use and
//! the batch runner both resubmit the same handful of questions — the
//! user-study tasks, dashboard-style canned queries — so [`Nalix`]
//! memoises outcomes keyed by a *normalized* question.
//!
//! The memo table is **bounded**: a long-running `nalixd` server sees an
//! unbounded stream of distinct questions, so the cache holds at most
//! `capacity` entries (default [`DEFAULT_CACHE_CAPACITY`]) and evicts
//! with the clock (second-chance) policy — each entry carries a
//! referenced bit set on every hit; the eviction hand sweeps the slots,
//! clearing referenced bits and reclaiming the first unreferenced slot
//! it finds. Clock approximates LRU while keeping hits write-lock-free:
//! a hit only sets an atomic bit under the read lock. Evictions are
//! counted exactly, both locally and as
//! [`obs::Counter::CacheEvictions`].
//!
//! Normalization goes exactly as far as the pipeline is insensitive,
//! and no further:
//!
//! - whitespace runs (any Unicode whitespace) collapse to one space;
//! - quote styles canonicalise (curly → straight), quoted values stay
//!   verbatim inside;
//! - a word is lowercased only where its case cannot change how the
//!   tagger reads it: the sentence-initial word, words already
//!   lowercase, and closed-class lexicon words
//!   ([`tags_case_insensitively`]). A capitalised unknown word
//!   mid-sentence tags as a proper noun — a *value* — so "Return all
//!   Movies" must not collapse with "Return all movies", and
//!   "Ron Howard" never collapses with "ron howard".
//!
//! [`Nalix`]: crate::Nalix
//! [`tags_case_insensitively`]: nlparser::lexicon::tags_case_insensitively

use crate::Outcome;
use nlparser::lexicon::tags_case_insensitively;
use nlparser::parse::normalize_multi_sentence;
use nlparser::tokenize::{tokenize, RawKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Default bound on distinct memoised questions. At the observed
/// few-hundred-bytes-per-outcome footprint this keeps a busy server's
/// steady-state cache in the low megabytes; interactive and batch
/// workloads (dozens of distinct questions) never reach it.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Hit/miss counters of a [`Nalix`](crate::Nalix) translation cache.
///
/// The hit/miss pair is read from a single atomic in the owning
/// [`Nalix`](crate::Nalix)'s [`obs::MetricsRegistry`], so `hits` and
/// `misses` always describe the same instant — the two reporting paths
/// ([`Nalix::cache_stats`](crate::Nalix::cache_stats) and
/// [`obs::MetricsSnapshot`]) can never disagree. With recording
/// switched off (`NALIX_OBS=off`), hits and misses read as zero;
/// `entries`, `capacity`, and `evictions` are tracked by the cache
/// itself and stay live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// The default backend whose keys new entries are filed under
    /// (entries for either backend coexist; see [`crate::Nalix::query`]).
    pub backend: crate::BackendKind,
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to run the full pipeline.
    pub misses: u64,
    /// Distinct normalized questions currently cached.
    pub entries: usize,
    /// Maximum entries the cache will hold (0 = caching disabled).
    pub capacity: usize,
    /// Entries evicted by the clock hand to stay under `capacity`.
    pub evictions: u64,
}

/// Canonical cache key (see the module docs for what is — and is not —
/// collapsed). Falls back to plain whitespace collapsing when the
/// question does not tokenize; the pipeline will reject it either way,
/// and the rejection is memoised under the same deterministic key.
pub(crate) fn normalize(question: &str) -> String {
    let fused = normalize_multi_sentence(question);
    let Ok(tokens) = tokenize(&fused) else {
        return question.split_whitespace().collect::<Vec<_>>().join(" ");
    };
    let mut out = String::with_capacity(question.len());
    for (i, t) in tokens.iter().enumerate() {
        if !out.is_empty() {
            out.push(' ');
        }
        match t.kind {
            RawKind::Quoted => {
                out.push('"');
                out.push_str(&t.text);
                out.push('"');
            }
            RawKind::Comma => out.push(','),
            RawKind::Number => out.push_str(&t.text),
            RawKind::Word => {
                let lower = t.text.to_lowercase();
                let case_blind = i == 0
                    || !t.text.chars().next().is_some_and(char::is_uppercase)
                    || tags_case_insensitively(&lower);
                if case_blind {
                    out.push_str(&lower);
                } else {
                    out.push_str(&t.text);
                }
            }
        }
    }
    out
}

/// One cached outcome plus its clock referenced bit. The bit is the
/// only part mutated on a hit, and it is atomic, so hits never need the
/// write lock.
struct Slot {
    key: String,
    outcome: Outcome,
    referenced: AtomicBool,
}

/// The clock state: slot arena, key → slot index, and the eviction
/// hand.
#[derive(Default)]
struct Clock {
    map: HashMap<String, usize>,
    slots: Vec<Slot>,
    hand: usize,
}

impl Clock {
    /// Reclaim one slot index via the second-chance sweep. Only called
    /// when `slots` is non-empty and full. Bounded: after one full
    /// sweep every referenced bit is clear, so the second pass must
    /// yield; the explicit bound makes that obvious to the reader (and
    /// the panic-free lint).
    fn evict(&mut self) -> usize {
        let n = self.slots.len();
        for _ in 0..=(2 * n) {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            if !self.slots[i].referenced.swap(false, Ordering::Relaxed) {
                return i;
            }
        }
        // Unreachable by the argument above; fall back to the hand's
        // current position rather than panicking.
        self.hand
    }
}

/// A concurrent, capacity-bounded memo table
/// `normalized question → Outcome` with clock (second-chance)
/// eviction. Hit/miss accounting is delegated to the caller's
/// [`obs::MetricsRegistry`] (one packed atomic), so there is exactly
/// one source of truth for the pair; evictions are counted here (and
/// mirrored to [`obs::Counter::CacheEvictions`]).
pub(crate) struct TranslationCache {
    inner: RwLock<Clock>,
    capacity: usize,
    evictions: AtomicU64,
}

impl Default for TranslationCache {
    fn default() -> Self {
        TranslationCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl TranslationCache {
    /// A cache holding at most `capacity` outcomes; `0` disables
    /// memoisation entirely (every lookup misses, inserts are
    /// dropped).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        TranslationCache {
            inner: RwLock::new(Clock::default()),
            capacity,
            evictions: AtomicU64::new(0),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    pub(crate) fn get(&self, key: &str, metrics: &obs::MetricsRegistry) -> Option<Outcome> {
        let hit = {
            let clock = self.inner.read().unwrap_or_else(PoisonError::into_inner);
            clock.map.get(key).map(|&i| {
                let slot = &clock.slots[i];
                slot.referenced.store(true, Ordering::Relaxed);
                slot.outcome.clone()
            })
        };
        match &hit {
            Some(_) => metrics.cache_hit(),
            None => metrics.cache_miss(),
        }
        hit
    }

    pub(crate) fn insert(&self, key: String, outcome: Outcome, metrics: &obs::MetricsRegistry) {
        if self.capacity == 0 {
            return;
        }
        let mut clock = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&i) = clock.map.get(&key) {
            // Racing miss on the same key: refresh in place.
            let slot = &mut clock.slots[i];
            slot.outcome = outcome;
            slot.referenced.store(true, Ordering::Relaxed);
            return;
        }
        if clock.slots.len() < self.capacity {
            let i = clock.slots.len();
            clock.slots.push(Slot {
                key: key.clone(),
                outcome,
                // Fresh entries start unreferenced: a never-hit entry
                // is the first to go when the hand comes around.
                referenced: AtomicBool::new(false),
            });
            clock.map.insert(key, i);
            return;
        }
        let i = clock.evict();
        let evicted_key = std::mem::take(&mut clock.slots[i].key);
        clock.map.remove(&evicted_key);
        clock.slots[i] = Slot {
            key: key.clone(),
            outcome,
            referenced: AtomicBool::new(false),
        };
        clock.map.insert(key, i);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        metrics.add(obs::Counter::CacheEvictions, 1);
    }

    pub(crate) fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    pub(crate) fn clear(&self) {
        let mut clock = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        *clock = Clock::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected() -> Outcome {
        Outcome::Rejected(crate::Rejected {
            errors: vec![],
            warnings: vec![],
        })
    }

    #[test]
    fn normalize_collapses_whitespace() {
        assert_eq!(normalize("  Find\tall \n movies  "), "find all movies");
        assert_eq!(
            normalize("find\u{00A0}all\u{2009}movies"),
            normalize("find all movies")
        );
    }

    #[test]
    fn normalize_folds_case_only_where_tagging_is_case_blind() {
        // Command verb, quantifier, and the sentence-initial word are
        // closed-class / position-insensitive: fold.
        assert_eq!(
            normalize("FIND All movies"), // "All" is a quantifier
            normalize("find all movies")
        );
        // A capitalised unknown word mid-sentence is a proper noun (a
        // value): its case is meaning-bearing, so the keys differ.
        assert_ne!(
            normalize("Return all Movies"),
            normalize("Return all movies")
        );
        assert_ne!(
            normalize("Find movies directed by Ron Howard"),
            normalize("Find movies directed by ron howard")
        );
    }

    #[test]
    fn normalize_canonicalises_quotes_but_not_quoted_values() {
        assert_eq!(
            normalize("the title is \u{201C}Traffic\u{201D}"),
            normalize("the title is \"Traffic\"")
        );
        assert_ne!(
            normalize("the title is \"Traffic\""),
            normalize("the title is \"traffic\"")
        );
    }

    #[test]
    fn normalize_untokenizable_input_is_deterministic() {
        let a = normalize("movies \u{2026}  by year");
        let b = normalize("movies \u{2026} by year");
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let metrics = obs::MetricsRegistry::new();
        let c = TranslationCache::default();
        assert_eq!(c.capacity(), DEFAULT_CACHE_CAPACITY);
        assert!(c.get("q", &metrics).is_none());
        c.insert("q".to_owned(), rejected(), &metrics);
        assert!(c.get("q", &metrics).is_some());
        // The pair comes back from a single atomic load: consistent by
        // construction.
        assert_eq!(metrics.cache_counts(), (1, 1));
        assert_eq!(c.len(), 1);
        c.clear();
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn capacity_bounds_resident_entries() {
        let metrics = obs::MetricsRegistry::new();
        let c = TranslationCache::with_capacity(8);
        for i in 0..100 {
            c.insert(format!("q{i}"), rejected(), &metrics);
            assert!(c.len() <= 8, "cache grew past capacity at insert {i}");
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.evictions(), 92);
    }

    #[test]
    fn clock_keeps_hot_entries_over_cold_ones() {
        let metrics = obs::MetricsRegistry::new();
        let c = TranslationCache::with_capacity(4);
        for i in 0..4 {
            c.insert(format!("q{i}"), rejected(), &metrics);
        }
        // q0 is hot: its referenced bit survives one hand pass, so the
        // next eviction reclaims a cold entry instead.
        assert!(c.get("q0", &metrics).is_some());
        c.insert("q4".to_owned(), rejected(), &metrics);
        assert!(c.get("q0", &metrics).is_some(), "hot entry was evicted");
        assert!(
            c.get("q1", &metrics).is_none(),
            "cold entry should have been the victim"
        );
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let metrics = obs::MetricsRegistry::new();
        let c = TranslationCache::with_capacity(2);
        c.insert("a".to_owned(), rejected(), &metrics);
        c.insert("b".to_owned(), rejected(), &metrics);
        c.insert("a".to_owned(), rejected(), &metrics);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert!(c.get("a", &metrics).is_some());
        assert!(c.get("b", &metrics).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let metrics = obs::MetricsRegistry::new();
        let c = TranslationCache::with_capacity(0);
        c.insert("q".to_owned(), rejected(), &metrics);
        assert_eq!(c.len(), 0);
        assert!(c.get("q", &metrics).is_none());
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn eviction_mirrors_into_the_registry() {
        let metrics = obs::MetricsRegistry::new();
        let c = TranslationCache::with_capacity(1);
        c.insert("a".to_owned(), rejected(), &metrics);
        c.insert("b".to_owned(), rejected(), &metrics);
        assert_eq!(c.evictions(), 1);
        // The registry mirror only records while recording is
        // enabled; the local counter is always exact.
        let expected = if metrics.is_enabled() { 1 } else { 0 };
        assert_eq!(
            metrics.snapshot().counter(obs::Counter::CacheEvictions),
            expected
        );
    }
}
