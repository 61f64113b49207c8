#![warn(missing_docs)]
// The store sits on the query path: a panic while loading or swapping
// a document would take a server worker down mid-request, so the
// escape hatches are denied exactly as in the other query-path crates.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! # store — a concurrent multi-document registry for NaLIX pipelines
//!
//! The paper's claim to being *generic* (Sec. 2, 5) rests on
//! Schema-Free XQuery: the same NL pipeline answers questions over any
//! XML corpus. This crate makes that operational. A [`DocumentStore`]
//! owns a registry of named corpora — the compiled-in `bib` / `movies`
//! / `dblp` generators plus arbitrary XML files — and keeps one fully
//! wired pipeline per document: the parsed [`xmldb::Document`] with
//! its structural index, the element/attribute catalog, a persistent
//! `xquery` engine with its value index, and a bounded translation
//! cache. Every pipeline records into the store's one
//! [`obs::MetricsRegistry`].
//!
//! ## Snapshot semantics
//!
//! Readers never block behind loads. [`DocumentStore::get`] hands out
//! an `Arc<DocPipeline>` *snapshot*; a concurrent
//! [`DocumentStore::put`] builds the replacement pipeline off-lock and
//! swaps the slot pointer atomically (epoch-style publication).
//! In-flight queries finish against whichever snapshot they observed —
//! bit-identically to a process that only ever had that snapshot —
//! while new requests see the new generation. Nothing is torn down
//! under a reader, and nothing is kept for anyone else: the store drops
//! its `Arc` to a replaced or evicted pipeline, so that generation is
//! freed by whichever holder lets go of it last.
//!
//! ## Counter accounting
//!
//! Every pipeline, of every document and generation, records into the
//! store's registry. A request still running on a replaced generation
//! records there too, so [`DocumentStore::snapshot`] is monotone across
//! reloads, updates and evictions with nothing to fold. Per-document
//! request counts are the slots' hit counters ([`DocumentStore::list`]).
//!
//! ## Capacity
//!
//! Loaded documents beyond [`StoreConfig::max_resident`] are evicted
//! *cold*: the coldest (least-recently-used) non-default pipeline is
//! dropped but its registration and source spec are kept, so the next
//! query for it lazily rebuilds. Explicit eviction
//! ([`DocumentStore::evict`]) removes the registration entirely —
//! later queries get a typed [`StoreError::UnknownDocument`].
//!
//! ```
//! use store::{DocumentStore, StoreConfig};
//!
//! let store = DocumentStore::with_builtins(StoreConfig::default());
//! let bib = store.get(None).unwrap(); // default document
//! let answers = bib.nalix().ask("Return every title.").unwrap();
//! assert!(!answers.is_empty());
//!
//! // Hot reload: readers holding `bib` are unaffected.
//! let put = store.put("bib", store::DocSpec::parse("bib")).unwrap();
//! assert!(put.reloaded);
//! assert_eq!(put.pipeline.generation(), bib.generation() + 1);
//! assert_eq!(bib.nalix().ask("Return every title.").unwrap(), answers);
//! ```

mod error;
mod spec;

pub use error::StoreError;
pub use spec::{load_dataset, Builtin, DocSpec};

use nalix::Nalix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use xmldb::document::DocStats;
use xmldb::Document;

/// Tunables for a [`DocumentStore`], with production defaults.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// The document served when a request names none. Protected from
    /// eviction.
    pub default_doc: String,
    /// Maximum number of *loaded* pipelines held at once; beyond it
    /// the coldest non-default document is unloaded (registration and
    /// spec are kept for lazy reload). Clamped to at least 1.
    pub max_resident: usize,
    /// Translation cache capacity for each per-document pipeline
    /// (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            default_doc: "bib".to_string(),
            max_resident: 8,
            cache_capacity: nalix::DEFAULT_CACHE_CAPACITY,
        }
    }
}

/// One immutable, fully wired pipeline snapshot: document + catalog +
/// engine + translation cache, recording into the store's registry.
///
/// Obtained from [`DocumentStore::get`]; hold the `Arc` for the
/// duration of one request and drop it. A snapshot outlives any
/// reload or eviction that happens while it is held.
pub struct DocPipeline {
    name: String,
    generation: u64,
    source: String,
    stats: DocStats,
    nalix: Nalix,
}

impl DocPipeline {
    /// The registry name this snapshot was loaded under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monotone per-name load generation: 1 on first load, +1 per
    /// reload. Distinguishes snapshots across a hot swap.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Where the document came from (`builtin:bib` or a file path).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Size statistics captured at load time.
    pub fn stats(&self) -> DocStats {
        self.stats
    }

    /// The NL pipeline over this document.
    pub fn nalix(&self) -> &Nalix {
        &self.nalix
    }

    /// The underlying document.
    pub fn doc(&self) -> &Document {
        self.nalix.doc()
    }
}

impl std::fmt::Debug for DocPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocPipeline")
            .field("name", &self.name)
            .field("generation", &self.generation)
            .field("source", &self.source)
            .field("nodes", &self.stats.total_nodes())
            .finish()
    }
}

/// One node-level edit addressed by **pre-order rank** rather than by
/// `NodeId` — the store-level (and wire-level) form of [`xmldb::Edit`].
///
/// Pre ranks are what clients can actually see (they enumerate the
/// document in order), and they are only meaningful against one
/// generation of a document. [`DocumentStore::update`] resolves them
/// against the pinned snapshot *inside* the writer lock, so a rank can
/// never silently bind to a node of a different generation; pair with
/// `expected_generation` for full optimistic concurrency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditSpec {
    /// Append `node` as the last child of the element at `parent`
    /// (attributes join the attribute prefix).
    InsertChild {
        /// Pre rank of the parent element.
        parent: u32,
        /// What to insert.
        node: xmldb::NewNode,
    },
    /// Insert `node` immediately after the node at `after`.
    InsertSibling {
        /// Pre rank of the reference sibling.
        after: u32,
        /// What to insert.
        node: xmldb::NewNode,
    },
    /// Delete the subtree rooted at `target`.
    DeleteSubtree {
        /// Pre rank of the subtree root.
        target: u32,
    },
    /// Replace the text/attribute value at `target`.
    ReplaceValue {
        /// Pre rank of the text or attribute node.
        target: u32,
        /// The replacement value.
        value: String,
    },
    /// Rename the element/attribute at `target`.
    RenameLabel {
        /// Pre rank of the element or attribute.
        target: u32,
        /// The new name.
        label: String,
    },
}

impl EditSpec {
    /// Resolve the pre-rank address against `doc` into an [`xmldb::Edit`].
    fn resolve(&self, doc: &Document) -> Result<xmldb::Edit, String> {
        let at = |pre: u32| {
            doc.node_at_pre(pre)
                .ok_or_else(|| format!("no node at pre rank {pre}"))
        };
        Ok(match self {
            EditSpec::InsertChild { parent, node } => xmldb::Edit::InsertChild {
                parent: at(*parent)?,
                node: node.clone(),
            },
            EditSpec::InsertSibling { after, node } => xmldb::Edit::InsertSibling {
                after: at(*after)?,
                node: node.clone(),
            },
            EditSpec::DeleteSubtree { target } => xmldb::Edit::DeleteSubtree {
                target: at(*target)?,
            },
            EditSpec::ReplaceValue { target, value } => xmldb::Edit::ReplaceValue {
                target: at(*target)?,
                value: value.clone(),
            },
            EditSpec::RenameLabel { target, label } => xmldb::Edit::RenameLabel {
                target: at(*target)?,
                label: label.clone(),
            },
        })
    }
}

/// What [`DocumentStore::update`] did.
#[derive(Debug)]
pub struct UpdateReport {
    /// The successor pipeline, already published.
    pub pipeline: Arc<DocPipeline>,
    /// What the commit did: strategy, edit counts, and the index deltas
    /// that were folded forward.
    pub stats: xmldb::UpdateStats,
}

/// What [`DocumentStore::put`] did.
#[derive(Debug)]
pub struct PutReport {
    /// The freshly built pipeline, already published.
    pub pipeline: Arc<DocPipeline>,
    /// True when an older generation was replaced (hot reload), false
    /// on first load under this name.
    pub reloaded: bool,
}

/// One line of a [`DocumentStore::list`] listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocStatus {
    /// Registry name.
    pub name: String,
    /// Source description (`builtin:bib` or a path).
    pub source: String,
    /// True when a pipeline is currently resident.
    pub loaded: bool,
    /// Load generation (0 if never loaded).
    pub generation: u64,
    /// Total document nodes, when loaded.
    pub nodes: Option<usize>,
    /// Times this document was requested via [`DocumentStore::get`].
    pub hits: u64,
    /// True for the store's default document.
    pub is_default: bool,
}

/// One registered document: its source spec, the current pipeline (if
/// resident), and bookkeeping for lazy loads and LRU eviction.
struct Slot {
    name: String,
    spec: Mutex<DocSpec>,
    /// The published snapshot. Readers clone the `Arc` under the read
    /// lock (held for nanoseconds); writers build the replacement
    /// entirely off-lock and swap under the write lock.
    pipeline: RwLock<Option<Arc<DocPipeline>>>,
    /// Serializes builds for this slot so a stampede of first requests
    /// loads the document once, not once per thread.
    loading: Mutex<()>,
    generation: AtomicU64,
    hits: AtomicU64,
    /// Store-clock tick of the most recent `get`, for LRU eviction.
    last_used: AtomicU64,
}

/// A concurrent registry of named documents, each with its own NaLIX
/// pipeline. See the crate docs for semantics; `Send + Sync`, designed
/// to sit behind one `Arc` shared by every server worker.
pub struct DocumentStore {
    config: StoreConfig,
    slots: RwLock<HashMap<String, Arc<Slot>>>,
    /// The one registry: `store_*` spans and counters, every pipeline's
    /// stages and engine counters, plus the HTTP-layer counters when a
    /// server fronts this store.
    metrics: Arc<obs::MetricsRegistry>,
    clock: AtomicU64,
}

// Lock poisoning can only happen if a panic escaped into a locked
// section; the store's sections are tiny and panic-free, and the data
// under them (a pointer swap, a spec, a snapshot) is valid at every
// step, so recovering the guard is always safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl DocumentStore {
    /// An empty store (no documents registered). Register sources with
    /// [`DocumentStore::register`] or [`DocumentStore::put`].
    pub fn new(config: StoreConfig) -> Self {
        DocumentStore {
            config,
            slots: RwLock::new(HashMap::new()),
            metrics: Arc::new(obs::MetricsRegistry::new()),
            clock: AtomicU64::new(0),
        }
    }

    /// A store with the three builtin corpora registered (not yet
    /// loaded — the first query for each builds it).
    pub fn with_builtins(config: StoreConfig) -> Self {
        let store = DocumentStore::new(config);
        for b in Builtin::ALL {
            // Builtin names are always valid; registration cannot fail.
            let _ = store.register(b.name(), DocSpec::Builtin(b));
        }
        store
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The default document's name.
    pub fn default_doc(&self) -> &str {
        &self.config.default_doc
    }

    /// The store's metrics registry, shared by every pipeline it builds
    /// (the HTTP server also records its `http_*` counters here).
    pub fn metrics_handle(&self) -> Arc<obs::MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Registers a source under `name` without loading it. Existing
    /// registrations are left untouched (use [`DocumentStore::put`]
    /// to replace). Returns whether a new registration was created.
    pub fn register(&self, name: &str, spec: DocSpec) -> Result<bool, StoreError> {
        validate_name(name)?;
        let mut slots = write(&self.slots);
        if slots.contains_key(name) {
            return Ok(false);
        }
        slots.insert(name.to_string(), Arc::new(new_slot(name, spec)));
        Ok(true)
    }

    /// The pipeline snapshot for `name` (`None` → the default
    /// document), lazily loading it on first use. This is the hot
    /// path: when the pipeline is resident it costs two atomic bumps
    /// and an `Arc` clone under a read lock.
    pub fn get(&self, name: Option<&str>) -> Result<Arc<DocPipeline>, StoreError> {
        let name = name.unwrap_or(&self.config.default_doc);
        let Some(slot) = read(&self.slots).get(name).cloned() else {
            self.metrics.add(obs::Counter::StoreMisses, 1);
            return Err(StoreError::UnknownDocument {
                name: name.to_string(),
            });
        };
        slot.hits.fetch_add(1, Ordering::Relaxed);
        slot.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        if let Some(p) = read(&slot.pipeline).clone() {
            return Ok(p);
        }
        // Cold: build once, whoever gets here first.
        let guard = lock(&slot.loading);
        let pipeline = self.load_locked(&slot);
        drop(guard);
        self.shrink_to_capacity();
        pipeline
    }

    /// Loads (or hot-reloads) `name` from `spec` and atomically
    /// publishes the new pipeline. In-flight readers keep their old
    /// snapshot, and the last of them frees it.
    pub fn put(&self, name: &str, spec: DocSpec) -> Result<PutReport, StoreError> {
        validate_name(name)?;
        let slot = {
            let mut slots = write(&self.slots);
            Arc::clone(
                slots
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(new_slot(name, spec.clone()))),
            )
        };
        let guard = lock(&slot.loading);
        *lock(&slot.spec) = spec;
        let reloaded = read(&slot.pipeline).is_some();
        let stage = if reloaded {
            obs::Stage::StoreReload
        } else {
            obs::Stage::StoreLoad
        };
        let pipeline = self.build_spanned(&slot, stage)?;
        let old = write(&slot.pipeline).replace(Arc::clone(&pipeline));
        let counter = if old.is_some() {
            obs::Counter::StoreReloads
        } else {
            obs::Counter::StoreLoads
        };
        self.metrics.add(counter, 1);
        drop(guard);
        drop(old);
        self.shrink_to_capacity();
        Ok(PutReport { pipeline, reloaded })
    }

    /// Applies one batch of node-level edits to `name` (`None` → the
    /// default document) and publishes the successor pipeline.
    ///
    /// Writers are serialized per document on the slot's `loading`
    /// mutex (the same anti-stampede lock cold loads use); readers are
    /// never blocked. The batch is applied to a pending overlay against
    /// the pinned snapshot, then committed with **epoch-batched
    /// incremental index maintenance**: small batches patch the
    /// structural index, postings, catalog, and value indexes forward
    /// ([`xmldb::CommitStrategy::Patch`], the `index_patch` span);
    /// batches touching more than a quarter of the document rebuild
    /// from scratch (`index_rebuild`). Either way the slot's generation
    /// advances by one and in-flight readers keep their old snapshot,
    /// exactly as across a hot reload.
    ///
    /// `expected_generation` is the optimistic-concurrency guard: when
    /// set and stale, the update is refused with
    /// [`StoreError::Conflict`] (counted as `update_conflicts`) and the
    /// document is untouched. Any edit failing validation rejects the
    /// whole batch ([`StoreError::UpdateRejected`]) — batches are
    /// all-or-nothing.
    ///
    /// Updates live in the resident pipeline only: a document that is
    /// later cold-evicted or hot-reloaded rebuilds from its source spec
    /// and the edits are gone (see `docs/UPDATES.md`).
    pub fn update(
        &self,
        name: Option<&str>,
        edits: &[EditSpec],
        expected_generation: Option<u64>,
    ) -> Result<UpdateReport, StoreError> {
        let name = name.unwrap_or(&self.config.default_doc);
        if edits.is_empty() {
            return Err(StoreError::UpdateRejected {
                name: name.to_string(),
                detail: "empty edit batch".to_string(),
            });
        }
        let Some(slot) = read(&self.slots).get(name).cloned() else {
            self.metrics.add(obs::Counter::StoreMisses, 1);
            return Err(StoreError::UnknownDocument {
                name: name.to_string(),
            });
        };
        slot.hits.fetch_add(1, Ordering::Relaxed);
        slot.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        let guard = lock(&slot.loading);
        // Cold slots load lazily, exactly as `get` would, before the
        // edits apply — an update addresses the document, not whatever
        // happens to be resident.
        let report = self.load_locked(&slot).and_then(|current| {
            if let Some(expected) = expected_generation.filter(|&g| g != current.generation()) {
                self.metrics.add(obs::Counter::UpdateConflicts, 1);
                return Err(StoreError::Conflict {
                    name: name.to_string(),
                    expected,
                    actual: current.generation(),
                });
            }
            let mut span = self.metrics.span(obs::Stage::StoreUpdate);
            let report = self.apply_update(&slot, &current, name, edits);
            span.set_outcome(match report {
                Ok(_) => obs::SpanOutcome::Ok,
                Err(_) => obs::SpanOutcome::ValidateError,
            });
            report
        });
        drop(guard);
        // A cold load can push the store over capacity. Shrink only
        // after the guard is released: with `max_resident: 1` the victim
        // can be this very slot.
        self.shrink_to_capacity();
        report
    }

    /// The update work itself, under the slot's writer lock and the
    /// caller's `store_update` span: overlay, commit (spanned as
    /// `index_patch` or `index_rebuild`), successor pipeline, publish.
    fn apply_update(
        &self,
        slot: &Slot,
        current: &Arc<DocPipeline>,
        name: &str,
        edits: &[EditSpec],
    ) -> Result<UpdateReport, StoreError> {
        let rejected = |detail: String| StoreError::UpdateRejected {
            name: name.to_string(),
            detail,
        };
        let doc = current.doc();
        let mut up = doc.begin_update().map_err(|e| rejected(e.to_string()))?;
        for spec in edits {
            let edit = spec.resolve(doc).map_err(&rejected)?;
            up.apply(&edit).map_err(|e| rejected(e.to_string()))?;
        }
        self.metrics.record_max(
            obs::MaxGauge::UpdateOverlayHighWater,
            up.overlay_len() as u64,
        );
        let (stage, counter) = match up.strategy() {
            xmldb::CommitStrategy::Patch => (obs::Stage::IndexPatch, obs::Counter::IndexPatches),
            xmldb::CommitStrategy::Rebuild => {
                (obs::Stage::IndexRebuild, obs::Counter::IndexRebuilds)
            }
        };
        let mut ispan = self.metrics.span(stage);
        let (next_doc, stats) = up.commit();
        ispan.set_outcome(obs::SpanOutcome::Ok);
        self.metrics.add(counter, 1);

        let next_doc = Arc::new(next_doc);
        let doc_stats = next_doc.stats();
        let nalix = Nalix::successor(current.nalix(), Arc::clone(&next_doc), &stats)
            .with_cache_capacity(self.config.cache_capacity);
        let generation = slot.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let pipeline = Arc::new(DocPipeline {
            name: slot.name.clone(),
            generation,
            source: current.source().to_string(),
            stats: doc_stats,
            nalix,
        });
        // The replaced `Arc` is dropped after the write guard; the caller
        // still holds `current`, so the old generation outlives this call.
        let _old = write(&slot.pipeline).replace(Arc::clone(&pipeline));
        self.metrics.add(obs::Counter::DocUpdates, 1);
        Ok(UpdateReport { pipeline, stats })
    }

    /// Removes `name` from the registry entirely: the pipeline (if
    /// resident) is dropped and later [`DocumentStore::get`] calls
    /// return [`StoreError::UnknownDocument`]. The default document
    /// is protected.
    pub fn evict(&self, name: &str) -> Result<(), StoreError> {
        if name == self.config.default_doc {
            return Err(StoreError::DefaultProtected {
                name: name.to_string(),
            });
        }
        let Some(slot) = write(&self.slots).remove(name) else {
            return Err(StoreError::UnknownDocument {
                name: name.to_string(),
            });
        };
        let old = write(&slot.pipeline).take();
        self.metrics.add(obs::Counter::StoreEvictions, 1);
        drop(old);
        Ok(())
    }

    /// One status line per registered document, sorted by name.
    pub fn list(&self) -> Vec<DocStatus> {
        let slots: Vec<Arc<Slot>> = read(&self.slots).values().cloned().collect();
        let mut out: Vec<DocStatus> = slots
            .iter()
            .map(|slot| {
                let pipeline = read(&slot.pipeline).clone();
                DocStatus {
                    name: slot.name.clone(),
                    source: lock(&slot.spec).describe(),
                    loaded: pipeline.is_some(),
                    generation: slot.generation.load(Ordering::Relaxed),
                    nodes: pipeline.map(|p| p.stats().total_nodes()),
                    hits: slot.hits.load(Ordering::Relaxed),
                    is_default: slot.name == self.config.default_doc,
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Number of currently loaded pipelines.
    pub fn resident(&self) -> usize {
        read(&self.slots)
            .values()
            .filter(|s| read(&s.pipeline).is_some())
            .count()
    }

    /// The store's registry, which every pipeline records into, with
    /// `cache_entries` summed over the resident pipelines' translation
    /// caches. Monotone across reloads, updates and evictions.
    pub fn snapshot(&self) -> obs::MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let slots: Vec<Arc<Slot>> = read(&self.slots).values().cloned().collect();
        snap.cache_entries = slots
            .iter()
            .filter_map(|s| {
                read(&s.pipeline)
                    .as_ref()
                    .map(|p| p.nalix.cache_stats().entries)
            })
            .sum::<usize>() as u64;
        snap
    }

    /// Builds a fresh pipeline for `slot` under a `store_load` /
    /// `store_reload` stage span.
    fn build_spanned(
        &self,
        slot: &Slot,
        stage: obs::Stage,
    ) -> Result<Arc<DocPipeline>, StoreError> {
        let mut span = self.metrics.span(stage);
        match self.build(slot) {
            Ok(p) => {
                span.set_outcome(obs::SpanOutcome::Ok);
                Ok(p)
            }
            Err(e) => {
                span.set_outcome(obs::SpanOutcome::EvalError);
                Err(e)
            }
        }
    }

    /// The expensive part, deliberately outside every lock except the
    /// slot's own `loading` mutex: source load/parse, index build,
    /// catalog build, engine construction.
    fn build(&self, slot: &Slot) -> Result<Arc<DocPipeline>, StoreError> {
        let spec = lock(&slot.spec).clone();
        let doc = spec.load()?;
        let stats = doc.stats();
        let nalix = Nalix::with_metrics(doc, Arc::clone(&self.metrics))
            .with_cache_capacity(self.config.cache_capacity);
        let generation = slot.generation.fetch_add(1, Ordering::SeqCst) + 1;
        Ok(Arc::new(DocPipeline {
            name: slot.name.clone(),
            generation,
            source: spec.describe(),
            stats,
            nalix,
        }))
    }

    /// The slot's resident pipeline, built and published first if the
    /// slot is cold. The caller holds `slot.loading`, and calls
    /// [`DocumentStore::shrink_to_capacity`] once it has let go of it.
    fn load_locked(&self, slot: &Slot) -> Result<Arc<DocPipeline>, StoreError> {
        if let Some(p) = read(&slot.pipeline).clone() {
            return Ok(p); // resident, or another thread built it while we waited
        }
        let pipeline = self.build_spanned(slot, obs::Stage::StoreLoad)?;
        self.metrics.add(obs::Counter::StoreLoads, 1);
        *write(&slot.pipeline) = Some(Arc::clone(&pipeline));
        Ok(pipeline)
    }

    /// Unloads coldest non-default pipelines until within capacity.
    /// Registrations and specs survive, so evicted-cold documents
    /// lazily rebuild on their next query.
    fn shrink_to_capacity(&self) {
        let max = self.config.max_resident.max(1);
        loop {
            let victim = {
                let slots = read(&self.slots);
                let loaded: Vec<&Arc<Slot>> = slots
                    .values()
                    .filter(|s| read(&s.pipeline).is_some())
                    .collect();
                if loaded.len() <= max {
                    return;
                }
                loaded
                    .into_iter()
                    .filter(|s| s.name != self.config.default_doc)
                    .min_by_key(|s| s.last_used.load(Ordering::Relaxed))
                    .cloned()
            };
            let Some(victim) = victim else { return };
            let guard = lock(&victim.loading);
            let unloaded = write(&victim.pipeline).take();
            if unloaded.is_some() {
                self.metrics.add(obs::Counter::StoreEvictions, 1);
            }
            drop(guard);
        }
    }
}

fn new_slot(name: &str, spec: DocSpec) -> Slot {
    Slot {
        name: name.to_string(),
        spec: Mutex::new(spec),
        pipeline: RwLock::new(None),
        loading: Mutex::new(()),
        generation: AtomicU64::new(0),
        hits: AtomicU64::new(0),
        last_used: AtomicU64::new(0),
    }
}

/// Names travel in URLs (`PUT /docs/:name`) and metrics labels; keep
/// them to one path-segment-safe token.
fn validate_name(name: &str) -> Result<(), StoreError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(StoreError::InvalidName {
            name: name.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> StoreConfig {
        StoreConfig {
            default_doc: "bib".to_string(),
            max_resident: 2,
            cache_capacity: 64,
        }
    }

    /// A one-edit batch that every builtin accepts: a leaf under the root.
    fn note() -> [EditSpec; 1] {
        [EditSpec::InsertChild {
            parent: 0,
            node: xmldb::NewNode::Leaf {
                label: "note".into(),
                text: "edited".into(),
            },
        }]
    }

    #[test]
    fn lazy_load_and_default() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        assert_eq!(store.resident(), 0);
        let by_default = store.get(None).unwrap();
        let by_name = store.get(Some("bib")).unwrap();
        assert!(Arc::ptr_eq(&by_default, &by_name), "same snapshot");
        assert_eq!(by_default.generation(), 1);
        assert_eq!(store.resident(), 1);
    }

    #[test]
    fn unknown_document_is_typed_and_counted() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        let err = store.get(Some("nope")).unwrap_err();
        assert_eq!(err.code(), "store.unknown_document");
        assert_eq!(store.snapshot().counter(obs::Counter::StoreMisses), 1);
    }

    #[test]
    fn invalid_names_rejected() {
        let store = DocumentStore::new(StoreConfig::default());
        for bad in ["", "a/b", "a b", &"x".repeat(65)] {
            let err = store.put(bad, DocSpec::parse("bib")).unwrap_err();
            assert_eq!(err.code(), "store.invalid_name", "{bad:?}");
        }
    }

    #[test]
    fn reload_bumps_generation_and_keeps_old_snapshot_working() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        let old = store.get(Some("movies")).unwrap();
        let before = old
            .nalix()
            .ask("Find all the movies directed by Ron Howard.")
            .unwrap();
        let put = store.put("movies", DocSpec::parse("movies")).unwrap();
        assert!(put.reloaded);
        assert_eq!(put.pipeline.generation(), 2);
        // The retired snapshot still answers, bit-identically.
        let after_on_old = old
            .nalix()
            .ask("Find all the movies directed by Ron Howard.")
            .unwrap();
        assert_eq!(before, after_on_old);
        // New gets see the new generation.
        assert_eq!(store.get(Some("movies")).unwrap().generation(), 2);
    }

    #[test]
    fn evict_removes_registration_and_protects_default() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        store.get(Some("movies")).unwrap();
        store.evict("movies").unwrap();
        assert_eq!(
            store.get(Some("movies")).unwrap_err().code(),
            "store.unknown_document"
        );
        assert_eq!(
            store.evict("bib").unwrap_err().code(),
            "store.default_protected"
        );
        assert_eq!(
            store.evict("ghost").unwrap_err().code(),
            "store.unknown_document"
        );
    }

    #[test]
    fn capacity_unloads_coldest_but_keeps_registration() {
        let store = DocumentStore::with_builtins(small_config());
        store.get(Some("bib")).unwrap();
        store.get(Some("movies")).unwrap();
        store.get(Some("dblp")).unwrap(); // over capacity → unload one
        assert!(store.resident() <= 2);
        // The default is never the victim.
        let listing = store.list();
        let bib = listing.iter().find(|d| d.name == "bib").unwrap();
        assert!(bib.loaded);
        // The unloaded document is still registered and lazily rebuilds.
        let movies = store.get(Some("movies")).unwrap();
        assert!(movies.nalix().ask("Return every title.").is_ok());
        drop(movies);

        // A cold update loads like a `get`, and so also shrinks: `dblp`
        // was unloaded above, and now `movies` is the coldest.
        let loaded = |store: &DocumentStore, name: &str| {
            store.list().iter().any(|d| d.name == name && d.loaded)
        };
        assert!(!loaded(&store, "dblp"));
        let report = store.update(Some("dblp"), &note(), None).unwrap();
        assert_eq!(store.resident(), 2);
        assert!(loaded(&store, "dblp") && !loaded(&store, "movies"));
        assert_eq!(report.pipeline.doc().nodes_labeled("note").len(), 1);

        // With room for one document the victim is the updated slot itself.
        let one = DocumentStore::with_builtins(StoreConfig {
            max_resident: 1,
            ..small_config()
        });
        one.get(None).unwrap();
        one.update(Some("dblp"), &note(), None).unwrap();
        assert_eq!(one.resident(), 1);
        assert!(loaded(&one, "bib") && !loaded(&one, "dblp"));
    }

    #[test]
    fn snapshot_is_monotone_across_reload_and_evict() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        let p = store.get(Some("movies")).unwrap();
        p.nalix().ask("Return every title.").unwrap();
        let before = store.snapshot();
        store.put("movies", DocSpec::parse("movies")).unwrap();
        drop(p); // quiesce the retired pipeline
        let mid = store.snapshot();
        assert!(mid.queries_total() >= before.queries_total());
        store.evict("movies").unwrap();
        let after = store.snapshot();
        assert!(after.queries_total() >= mid.queries_total());
        assert_eq!(after.counter(obs::Counter::StoreLoads), 1);
        assert_eq!(after.counter(obs::Counter::StoreReloads), 1);
        assert_eq!(after.counter(obs::Counter::StoreEvictions), 1);
    }

    #[test]
    fn replaced_generations_die_without_a_snapshot() {
        let store = DocumentStore::with_builtins(small_config());
        let weak = |name: &str| Arc::downgrade(&store.get(Some(name)).unwrap());
        let mut replaced = Vec::new();

        let bib = weak("bib");
        store.update(Some("bib"), &note(), None).unwrap();
        replaced.push(("update", bib));

        let movies = weak("movies");
        store.put("movies", DocSpec::parse("movies")).unwrap();
        replaced.push(("put", movies));

        // `movies` is the coldest non-default document when `dblp` loads.
        let movies = weak("movies");
        let dblp = weak("dblp");
        assert!(!store.list().iter().any(|d| d.name == "movies" && d.loaded));
        replaced.push(("capacity unload", movies));

        store.evict("dblp").unwrap();
        replaced.push(("evict", dblp));

        for (how, generation) in replaced {
            assert_eq!(generation.strong_count(), 0, "{how} kept its generation");
        }
    }

    #[test]
    fn a_reader_keeps_its_generation_and_is_counted() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        let reader = store.get(Some("movies")).unwrap();
        let generation = Arc::downgrade(&reader);
        store.update(Some("movies"), &note(), None).unwrap();
        assert_eq!(generation.strong_count(), 1, "only the reader holds it");

        let before = store.snapshot().queries_total();
        reader.nalix().ask("Return every title.").unwrap();
        assert_eq!(store.snapshot().queries_total(), before + 1);
        drop(reader);
        assert_eq!(generation.strong_count(), 0);
        assert_eq!(store.snapshot().queries_total(), before + 1);
    }

    #[test]
    fn cache_entries_sum_the_resident_caches() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        let ask = |name: &str| {
            let p = store.get(Some(name)).unwrap();
            p.nalix().ask("Return every title.").unwrap();
        };
        ask("movies");
        for _ in 0..3 {
            ask("bib");
            store.update(Some("bib"), &note(), None).unwrap();
        }
        ask("bib");
        store.put("movies", DocSpec::parse("movies")).unwrap();
        let resident: usize = ["bib", "movies"]
            .iter()
            .map(|&name| store.get(Some(name)).unwrap().nalix().cache_stats().entries)
            .sum();
        assert_eq!(resident, 1, "the reload emptied movies' cache");
        assert_eq!(store.snapshot().cache_entries, resident as u64);
    }

    /// The pre rank of the first element named `label`.
    fn pre_of(doc: &Document, label: &str) -> u32 {
        let id = doc.nodes_labeled(label)[0];
        doc.node(id).pre
    }

    #[test]
    fn update_inserts_patch_and_bump_generation() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        let before = store.get(Some("movies")).unwrap();
        let movie = pre_of(before.doc(), "movie");
        let report = store
            .update(
                Some("movies"),
                &[EditSpec::InsertChild {
                    parent: movie,
                    node: xmldb::NewNode::Leaf {
                        label: "genre".into(),
                        text: "drama".into(),
                    },
                }],
                Some(before.generation()),
            )
            .unwrap();
        assert_eq!(report.stats.strategy, xmldb::CommitStrategy::Patch);
        assert_eq!(report.pipeline.generation(), before.generation() + 1);
        // New readers see the edit…
        let after = store.get(Some("movies")).unwrap();
        assert_eq!(after.generation(), report.pipeline.generation());
        assert_eq!(after.doc().nodes_labeled("genre").len(), 1);
        // …while the pinned snapshot still answers from its generation.
        assert!(before.doc().nodes_labeled("genre").is_empty());
        let snap = store.snapshot();
        assert_eq!(snap.counter(obs::Counter::DocUpdates), 1);
        assert_eq!(snap.counter(obs::Counter::IndexPatches), 1);
        assert_eq!(snap.counter(obs::Counter::IndexRebuilds), 0);
        assert_eq!(snap.max(obs::MaxGauge::UpdateOverlayHighWater), 1);
        assert_eq!(snap.stage(obs::Stage::StoreUpdate).ok(), 1);
        assert_eq!(snap.stage(obs::Stage::IndexPatch).ok(), 1);
    }

    #[test]
    fn update_conflict_is_typed_and_counted() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        let p = store.get(Some("bib")).unwrap();
        let title = pre_of(p.doc(), "title");
        let edit = EditSpec::ReplaceValue {
            target: title + 1, // the title's text node follows it in pre order
            value: "New Title".into(),
        };
        let err = store
            .update(Some("bib"), std::slice::from_ref(&edit), Some(99))
            .unwrap_err();
        assert_eq!(err.code(), "store.conflict");
        assert_eq!(store.snapshot().counter(obs::Counter::UpdateConflicts), 1);
        // The right generation sails through.
        let report = store
            .update(Some("bib"), &[edit], Some(p.generation()))
            .unwrap();
        assert_eq!(report.pipeline.generation(), p.generation() + 1);
    }

    #[test]
    fn update_rejects_bad_edits_atomically() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        let p = store.get(Some("bib")).unwrap();
        let title = pre_of(p.doc(), "title");
        let err = store
            .update(
                Some("bib"),
                &[
                    EditSpec::RenameLabel {
                        target: title,
                        label: "headline".into(),
                    },
                    EditSpec::DeleteSubtree { target: 9_999_999 },
                ],
                None,
            )
            .unwrap_err();
        assert_eq!(err.code(), "store.update_rejected");
        // All-or-nothing: the first (valid) edit did not land either.
        let now = store.get(Some("bib")).unwrap();
        assert_eq!(now.generation(), p.generation());
        assert!(now.doc().nodes_labeled("headline").is_empty());
        assert!(store
            .update(Some("bib"), &[], None)
            .is_err_and(|e| e.code() == "store.update_rejected"));
    }

    #[test]
    fn update_answers_reflect_the_edit() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        let p = store.get(Some("movies")).unwrap();
        let q = "Find all the movies directed by Ron Howard.";
        let before = p.nalix().ask(q).unwrap();
        // Delete one Ron Howard movie's director leaf's text? No — delete
        // a whole movie is too big for bib-sized docs; replace the
        // director value of one movie instead.
        let doc = p.doc();
        let director = doc
            .nodes_labeled("director")
            .iter()
            .copied()
            .find(|&d| doc.string_value(d) == "Ron Howard")
            .unwrap();
        let text_pre = doc.node(doc.first_child(director).unwrap()).pre;
        let report = store
            .update(
                Some("movies"),
                &[EditSpec::ReplaceValue {
                    target: text_pre,
                    value: "Rob Reiner".into(),
                }],
                None,
            )
            .unwrap();
        let after = report.pipeline.nalix().ask(q).unwrap();
        assert_eq!(after.len(), before.len() - 1);
        // The pinned pre-update pipeline still answers unchanged.
        assert_eq!(p.nalix().ask(q).unwrap(), before);
    }

    #[test]
    fn update_lazily_loads_cold_documents() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        assert_eq!(store.resident(), 0);
        let report = store
            .update(
                Some("movies"),
                &[EditSpec::InsertChild {
                    parent: 0,
                    node: xmldb::NewNode::Leaf {
                        label: "note".into(),
                        text: "edited cold".into(),
                    },
                }],
                None,
            )
            .unwrap();
        assert_eq!(report.pipeline.generation(), 2); // load (1) + update (2)
        assert!(store
            .update(
                Some("ghost"),
                &[EditSpec::DeleteSubtree { target: 1 }],
                None
            )
            .is_err_and(|e| e.code() == "store.unknown_document"));
    }

    #[test]
    fn list_reports_status() {
        let store = DocumentStore::with_builtins(StoreConfig::default());
        store.get(Some("bib")).unwrap();
        let listing = store.list();
        assert_eq!(
            listing.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
            ["bib", "dblp", "movies"]
        );
        let bib = &listing[0];
        assert!(bib.loaded && bib.is_default && bib.hits == 1 && bib.nodes.is_some());
        assert!(!listing[1].loaded && listing[1].nodes.is_none());
    }
}
