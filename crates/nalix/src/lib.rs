#![warn(missing_docs)]
// The whole NL→answer pipeline lives here: per the paper's Sec. 4
// contract, any question — however malformed — must produce either an
// answer or feedback with a rephrasing suggestion. Panics are a
// contract violation, so the usual escape hatches are denied outright.
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

//! # nalix — a generic natural language interface for an XML database
//!
//! Reproduction of *Li, Yang & Jagadish, "Constructing a Generic Natural
//! Language Interface for an XML Database", EDBT 2006*: an arbitrary
//! English query is parsed (crate [`nlparser`]), classified into tokens
//! and markers (Tables 1–2), validated against the supported grammar
//! (Table 6) with dynamically generated feedback, and translated into a
//! Schema-Free XQuery expression (crate [`xquery`]) evaluated against an
//! XML database (crate [`xmldb`]).
//!
//! ## Quick start
//!
//! ```
//! use nalix::Nalix;
//! use xmldb::datasets::movies::movies;
//!
//! let doc = movies();
//! let nalix = Nalix::new(doc.clone());
//! match nalix.query("Find all the movies directed by Ron Howard.") {
//!     nalix::Outcome::Translated(t) => {
//!         let results = nalix.execute(&t).unwrap();
//!         assert_eq!(results.len(), 2);
//!     }
//!     nalix::Outcome::Rejected(r) => panic!("{:?}", r.errors),
//! }
//! ```
//!
//! ## The interactive loop
//!
//! When a query cannot be understood, [`Nalix::query`] returns
//! [`Outcome::Rejected`] carrying error messages with rephrasing
//! suggestions — the paper's interactive query-formulation mechanism
//! (Sec. 4). The paper's running example works verbatim:
//!
//! ```
//! use nalix::{Nalix, Outcome};
//! use xmldb::datasets::movies::movies;
//!
//! let doc = movies();
//! let nalix = Nalix::new(doc.clone());
//! // Query 1 is invalid — "as" is outside the vocabulary…
//! let out = nalix.query(
//!     "Return every director who has directed as many movies as has Ron Howard.");
//! let rejection = match out {
//!     Outcome::Rejected(r) => r,
//!     _ => panic!("expected rejection"),
//! };
//! assert!(rejection.errors[0].message().contains("the same as"));
//! // …and Query 2, the suggested rephrasing, translates and runs.
//! let out = nalix.query(
//!     "Return every director, where the number of movies directed by the \
//!      director is the same as the number of movies directed by Ron Howard.");
//! assert!(matches!(out, Outcome::Translated(_)));
//! ```
//!
//! ## Observability
//!
//! Every pipeline stage is instrumented with the re-exported [`obs`]
//! crate: stage spans (wall time + outcome), end-to-end query outcomes
//! including cache-hit short-circuits, and engine work counters.
//! [`Nalix::new`] records into a fresh [`obs::MetricsRegistry`], and a
//! [`Nalix::successor`] keeps recording into its prior's; pass
//! [`obs::global_handle()`] to [`Nalix::with_metrics`] to aggregate
//! with the process-global `xmldb`/`nlparser` counters. See
//! `docs/OBSERVABILITY.md` for the metric catalog.
//!
//! ```
//! use nalix::{obs, Nalix};
//! use xmldb::datasets::movies::movies;
//!
//! let doc = movies();
//! let nalix = Nalix::new(doc.clone());
//! let _ = nalix.ask("Find all the movies directed by Ron Howard.");
//! let snap = nalix.metrics();
//! assert_eq!(snap.stage(obs::Stage::Translate).spans(), 1);
//! assert_eq!(snap.queries_with(obs::SpanOutcome::Ok), 1);
//! ```

pub mod backend;
pub mod binding;
pub mod cache;
pub mod catalog;
pub mod classify;
pub mod error;
pub mod explain;
pub mod feedback;
pub mod semantics;
pub mod session;
pub mod thesaurus;
pub mod token;
pub mod translate;
pub mod validate;
pub mod vocab;

pub use backend::{AnswerSet, BackendKind};
pub use cache::{CacheStats, DEFAULT_CACHE_CAPACITY};
pub use error::QueryError;
pub use feedback::{Feedback, FeedbackKind, Severity};
/// The observability layer (re-exported): [`obs::MetricsRegistry`],
/// [`obs::MetricsSnapshot`], stage spans, and the global registry.
pub use obs;
pub use session::{
    detect_follow_up, FollowUp, PriorTurn, Session, SessionCheckout, SessionStore, TurnAnswer,
};
pub use token::{ClassifiedTree, NodeClass, OpSem, QtKind, TokenType};
pub use translate::{TranslateError, Translation};
pub use xquery::{EvalBudget, ExhaustedResource};

use cache::TranslationCache;
use catalog::Catalog;
use xmldb::Document;
use xquery::{Engine, EvalError, Item, Sequence};

/// A successfully translated query.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The Schema-Free XQuery expression.
    pub translation: Translation,
    /// Non-blocking warnings (pronouns, ambiguous names).
    pub warnings: Vec<Feedback>,
    /// The classified, validated parse tree (for explain output).
    pub tree: ClassifiedTree,
}

/// A rejected query, with the feedback the user sees.
#[derive(Debug, Clone)]
pub struct Rejected {
    /// The errors (at least one).
    pub errors: Vec<Feedback>,
    /// Warnings gathered before rejection.
    pub warnings: Vec<Feedback>,
}

/// A fully detailed successful answer, as returned by
/// [`Nalix::answer_full`]: the flat string values (bit-identical to
/// what [`Nalix::answer`] returns for the same question), plus the
/// pretty-printed Schema-Free XQuery, non-blocking warnings, and
/// whether the translation came from the cache. This is the payload
/// the `nalixd` HTTP server serialises for `POST /query`.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The flat string values of the result sequence.
    pub values: Vec<String>,
    /// The compiled query, pretty-printed in the answering backend's
    /// language — Schema-Free XQuery for [`BackendKind::Xquery`], the
    /// SQL subset for [`BackendKind::Sql`]. (The field keeps its
    /// original name for wire compatibility; the `backend` field says
    /// which language it is.)
    pub xquery: String,
    /// Which translation backend produced the values.
    pub backend: BackendKind,
    /// True when the question imposed an explicit result order ("…
    /// sorted by year") — the [`AnswerSet`] equivalence mode.
    pub ordered: bool,
    /// Non-blocking warnings (pronouns, ambiguous names).
    pub warnings: Vec<Feedback>,
    /// True when the translation was served from the memo table (the
    /// evaluation still ran).
    pub cached: bool,
}

/// The outcome of submitting one natural language query.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The query was understood; evaluate with [`Nalix::execute`].
    Translated(Box<Translated>),
    /// The query was rejected; revise using the error messages.
    Rejected(Rejected),
}

impl Outcome {
    /// True for [`Outcome::Translated`].
    pub fn is_translated(&self) -> bool {
        matches!(self, Outcome::Translated(_))
    }
}

/// The NaLIX system: a natural language query interface over one XML
/// document.
///
/// `Nalix` is `Send + Sync`: the document and catalog are immutable and
/// the two caches — translation outcomes here, the value index inside
/// the persistent [`Engine`] — are internally synchronized. A single
/// instance can therefore be shared by many threads (the server's
/// worker pool does exactly that).
///
/// `Nalix` *shares ownership* of its document (`Arc<Document>`) rather
/// than borrowing it, so every pipeline is `'static`: instances can be
/// stored in registries, handed to plainly spawned worker threads, and
/// hot-swapped at runtime (the `store` crate builds on exactly this).
/// Constructors accept anything convertible into an `Arc<Document>` —
/// an owned [`Document`] or an existing `Arc`.
pub struct Nalix {
    doc: std::sync::Arc<Document>,
    catalog: Catalog,
    /// Persistent query engine: keeps its lazily built value index warm
    /// across queries instead of rebuilding it per [`Nalix::execute`].
    engine: Engine,
    /// Memo of `backend + normalized question → Outcome` (see
    /// [`crate::cache`]; the backend joins the key so switching
    /// backends on a shared pipeline can never serve a stale entry).
    translations: TranslationCache,
    /// Stage spans, query outcomes, and cache counters land here (the
    /// engine shares the same registry for its evaluation spans).
    metrics: std::sync::Arc<obs::MetricsRegistry>,
    /// The default translation backend ([`BackendKind::Xquery`] unless
    /// overridden by [`Nalix::with_backend`]).
    backend: BackendKind,
}

impl Nalix {
    /// Build the interface for a (finalized) document. Catalog
    /// construction scans the document once. Metrics go to an isolated
    /// per-instance [`obs::MetricsRegistry`]; use
    /// [`Nalix::with_metrics`] to share one.
    pub fn new(doc: impl Into<std::sync::Arc<Document>>) -> Self {
        Nalix::with_metrics(doc, std::sync::Arc::new(obs::MetricsRegistry::new()))
    }

    /// Build the interface recording into a caller-supplied registry —
    /// typically [`obs::global_handle()`] so pipeline spans land next
    /// to the process-global `xmldb`/`nlparser` counters, or a fresh
    /// registry shared by a group of instances under test.
    pub fn with_metrics(
        doc: impl Into<std::sync::Arc<Document>>,
        metrics: std::sync::Arc<obs::MetricsRegistry>,
    ) -> Self {
        let doc = doc.into();
        Nalix {
            catalog: Catalog::build(&doc),
            engine: Engine::with_metrics(doc.clone(), metrics.clone()),
            doc,
            translations: TranslationCache::default(),
            metrics,
            backend: BackendKind::default(),
        }
    }

    /// Build the pipeline for the successor document of a node-level
    /// update, reusing everything the update provably did not touch.
    ///
    /// On [`xmldb::CommitStrategy::Patch`] commits the catalog is
    /// folded forward from the overlay's balanced value deltas
    /// ([`catalog::Catalog::apply_update`]) and the engine inherits the
    /// prior engine's value indexes for every label outside
    /// `stats.dirty_labels` ([`Engine::seeded_from`]) — node identities
    /// are stable across a patch commit, so the carried indexes are
    /// bit-identical to a cold rebuild's. On
    /// [`xmldb::CommitStrategy::Rebuild`] commits everything is rebuilt
    /// from scratch, exactly as [`Nalix::with_metrics`] would.
    ///
    /// Either way the successor records into `prior`'s registry, so its
    /// counts continue the prior's, and queries still running on `prior`
    /// add to the same totals. It keeps the prior translation-cache
    /// capacity but starts with an empty memo table: the catalog
    /// changed, so stale translation outcomes must not survive.
    pub fn successor(
        prior: &Nalix,
        doc: impl Into<std::sync::Arc<Document>>,
        stats: &xmldb::UpdateStats,
    ) -> Self {
        let doc = doc.into();
        let metrics = prior.metrics.clone();
        let (catalog, engine) = match stats.strategy {
            xmldb::CommitStrategy::Patch => {
                let mut catalog = prior.catalog.clone();
                catalog.apply_update(&doc, stats);
                let engine = Engine::seeded_from(
                    doc.clone(),
                    metrics.clone(),
                    &prior.engine,
                    &stats.dirty_labels,
                );
                (catalog, engine)
            }
            xmldb::CommitStrategy::Rebuild => (
                Catalog::build(&doc),
                Engine::with_metrics(doc.clone(), metrics.clone()),
            ),
        };
        Nalix {
            catalog,
            engine,
            doc,
            translations: TranslationCache::with_capacity(prior.translations.capacity()),
            metrics,
            backend: prior.backend,
        }
    }

    /// Select the default translation backend (builder-style). Every
    /// entry point that does not name a backend explicitly —
    /// [`Nalix::answer`], [`Nalix::answer_full`], [`Nalix::query`] —
    /// uses this one; [`Nalix::answer_full_on`] overrides per call.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The active default backend.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The relational view of the document (the SQL backend's
    /// tables). It borrows the document, so it costs nothing to make.
    pub fn shredding(&self) -> relstore::Shredding<'_> {
        relstore::Shredding::build(&self.doc)
    }

    /// Replace the translation cache with one bounded to `capacity`
    /// entries (builder-style; `0` disables memoisation). The default
    /// is [`DEFAULT_CACHE_CAPACITY`]. Long-running servers set this
    /// from their config so memory stays bounded under an unbounded
    /// stream of distinct questions; see [`Nalix::cache_stats`] for the
    /// eviction counter.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.translations = TranslationCache::with_capacity(capacity);
        self
    }

    /// The underlying document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// A shared handle to the underlying document.
    pub fn doc_handle(&self) -> std::sync::Arc<Document> {
        self.doc.clone()
    }

    /// The database catalog (labels and value index).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The translation-cache key for `sentence` on `backend`: the
    /// backend's wire name, a unit separator (which
    /// [`cache::normalize`] can never emit), and the normalized
    /// sentence. Keying by backend means switching backends on a shared
    /// pipeline can never serve an entry filed for the other target.
    fn cache_key_on(&self, backend: BackendKind, sentence: &str) -> String {
        format!("{}\u{1f}{}", backend.name(), cache::normalize(sentence))
    }

    fn cache_key(&self, sentence: &str) -> String {
        self.cache_key_on(self.backend, sentence)
    }

    /// Submit a natural language query: parse → classify → validate →
    /// translate.
    ///
    /// Outcomes are memoised by the whitespace-normalized sentence: the
    /// pipeline is a pure function of sentence and catalog, so repeated
    /// questions (interactive retries, batch workloads) skip it
    /// entirely. Use [`Nalix::cache_stats`] to observe the hit rate and
    /// [`Nalix::clear_cache`] to drop the memo table.
    pub fn query(&self, sentence: &str) -> Outcome {
        let key = self.cache_key(sentence);
        if let Some(memo) = self.translations.get(&key, &self.metrics) {
            // The pipeline did not run: a cache hit records a query
            // outcome but no stage spans.
            self.metrics.record_query(obs::SpanOutcome::CacheHit);
            return memo;
        }
        let out = self.query_uncached(sentence);
        self.translations.insert(key, out.clone(), &self.metrics);
        out
    }

    /// [`Nalix::query`] without consulting or filling the translation
    /// cache.
    pub fn query_uncached(&self, sentence: &str) -> Outcome {
        match self.parse_stage(sentence) {
            Ok(dep) => self.query_tree(&dep),
            Err(e) => {
                self.metrics.record_query(obs::SpanOutcome::ParseError);
                Outcome::Rejected(Rejected {
                    errors: vec![Feedback::error(FeedbackKind::GrammarViolation {
                        detail: e.message,
                    })],
                    warnings: vec![],
                })
            }
        }
    }

    /// Dependency-parse `sentence` under an [`obs::Stage::Parse`] span.
    fn parse_stage(&self, sentence: &str) -> Result<nlparser::DepTree, nlparser::ParseFailure> {
        let span = self.metrics.span(obs::Stage::Parse);
        match nlparser::parse(sentence) {
            Ok(t) => {
                span.finish(obs::SpanOutcome::Ok);
                Ok(t)
            }
            Err(e) => {
                span.finish(obs::SpanOutcome::ParseError);
                Err(e)
            }
        }
    }

    /// Submit an already-parsed dependency tree (the user-study harness
    /// uses this entry point to inject parse noise upstream).
    pub fn query_tree(&self, dep: &nlparser::DepTree) -> Outcome {
        let (out, class) = self.run_pipeline(dep);
        self.metrics.record_query(class);
        out
    }

    /// Classify → validate → translate under stage spans, returning the
    /// outcome plus its [`obs::SpanOutcome`] class (which stage failed,
    /// if any — the same distinction [`QueryError`] draws).
    fn run_pipeline(&self, dep: &nlparser::DepTree) -> (Outcome, obs::SpanOutcome) {
        let cspan = self.metrics.span(obs::Stage::Classify);
        let classified = classify::classify(dep);
        cspan.finish(obs::SpanOutcome::Ok);
        self.run_from_classified(classified)
    }

    /// Validate → translate an already-classified tree under stage
    /// spans. Shared by [`Nalix::run_pipeline`] and the session layer,
    /// whose resolved follow-up trees enter the pipeline here (there is
    /// no sentence to classify — the tree was spliced together from the
    /// prior turn and the follow-up fragment).
    pub(crate) fn run_from_classified(
        &self,
        classified: ClassifiedTree,
    ) -> (Outcome, obs::SpanOutcome) {
        let vspan = self.metrics.span(obs::Stage::Validate);
        let validation = validate::validate(classified, &self.catalog);
        let warnings: Vec<Feedback> = validation.warnings().into_iter().cloned().collect();
        self.metrics
            .add(obs::Counter::ValidateWarnings, warnings.len() as u64);
        if !validation.is_valid() {
            let errors: Vec<Feedback> = validation.errors().into_iter().cloned().collect();
            self.metrics
                .add(obs::Counter::ValidateErrors, errors.len() as u64);
            // The "unknown term" class is a classification failure;
            // everything else the validator reports is a validation
            // failure (mirrors `QueryError::from(Rejected)`).
            let class = if errors
                .iter()
                .any(|f| matches!(f.kind, FeedbackKind::UnknownTerm { .. }))
            {
                obs::SpanOutcome::ClassifyError
            } else {
                obs::SpanOutcome::ValidateError
            };
            vspan.finish(class);
            return (Outcome::Rejected(Rejected { errors, warnings }), class);
        }
        vspan.finish(obs::SpanOutcome::Ok);

        let tspan = self.metrics.span(obs::Stage::Translate);
        match translate::translate(&validation.tree) {
            Ok(translation) => {
                tspan.finish(obs::SpanOutcome::Ok);
                (
                    Outcome::Translated(Box::new(Translated {
                        translation,
                        warnings,
                        tree: validation.tree,
                    })),
                    obs::SpanOutcome::Ok,
                )
            }
            Err(e) => {
                tspan.finish(obs::SpanOutcome::TranslateError);
                (
                    Outcome::Rejected(Rejected {
                        errors: vec![Feedback::error(FeedbackKind::GrammarViolation {
                            detail: e.message,
                        })],
                        warnings,
                    }),
                    obs::SpanOutcome::TranslateError,
                )
            }
        }
    }

    /// Evaluate a translated query against the database (on the
    /// persistent engine, whose value index stays warm across calls),
    /// under the default [`EvalBudget`].
    pub fn execute(&self, t: &Translated) -> Result<Sequence, EvalError> {
        self.engine.eval_expr(&t.translation.query)
    }

    /// [`Nalix::execute`] under an explicit resource budget.
    pub fn execute_with_budget(
        &self,
        t: &Translated,
        budget: &EvalBudget,
    ) -> Result<Sequence, EvalError> {
        self.engine
            .eval_expr_with_budget(&t.translation.query, budget)
    }

    /// Answer a question end to end — parse → classify → validate →
    /// translate → evaluate — under the default [`EvalBudget`].
    ///
    /// This is the panic-free entry point the paper's Sec. 4 contract
    /// maps to: every failure comes back as a [`QueryError`] naming the
    /// offending stage and token, with a non-empty rephrasing
    /// suggestion. Successful questions return the flat string values.
    pub fn answer(&self, sentence: &str) -> Result<Vec<String>, QueryError> {
        self.answer_with_budget(sentence, &EvalBudget::default())
    }

    /// [`Nalix::answer`] under an explicit resource budget.
    pub fn answer_with_budget(
        &self,
        sentence: &str,
        budget: &EvalBudget,
    ) -> Result<Vec<String>, QueryError> {
        self.answer_full_tree_on(self.backend, sentence, budget)
            .map(|(a, _)| a.values)
    }

    /// [`Nalix::answer_with_budget`], keeping the full detail of the
    /// success path: the values (bit-identical to what
    /// [`Nalix::answer`] returns), the pretty-printed XQuery, the
    /// non-blocking warnings, and whether the translation was a cache
    /// hit. This is what the `nalixd` HTTP server serialises.
    pub fn answer_full(&self, sentence: &str, budget: &EvalBudget) -> Result<Answer, QueryError> {
        self.answer_full_tree(sentence, budget).map(|(a, _)| a)
    }

    /// [`Nalix::answer_full`] on an explicitly named backend,
    /// overriding the instance default for this one call. This is the
    /// entry point behind the server's per-request `backend` knob and
    /// the dual-backend equivalence suite.
    pub fn answer_full_on(
        &self,
        backend: BackendKind,
        sentence: &str,
        budget: &EvalBudget,
    ) -> Result<Answer, QueryError> {
        self.answer_full_tree_on(backend, sentence, budget)
            .map(|(a, _)| a)
    }

    /// Answer on `backend` and fold the result into an [`AnswerSet`] —
    /// the normalized form cross-backend equivalence is asserted over.
    pub fn answer_set(
        &self,
        backend: BackendKind,
        sentence: &str,
        budget: &EvalBudget,
    ) -> Result<AnswerSet, QueryError> {
        let a = self.answer_full_on(backend, sentence, budget)?;
        Ok(AnswerSet::new(a.values, a.ordered))
    }

    /// [`Nalix::answer_full`], additionally returning the classified,
    /// validated parse tree — the session layer stores it as the prior
    /// turn a follow-up question resolves against.
    pub(crate) fn answer_full_tree(
        &self,
        sentence: &str,
        budget: &EvalBudget,
    ) -> Result<(Answer, ClassifiedTree), QueryError> {
        self.answer_full_tree_on(self.backend, sentence, budget)
    }

    fn answer_full_tree_on(
        &self,
        backend: BackendKind,
        sentence: &str,
        budget: &EvalBudget,
    ) -> Result<(Answer, ClassifiedTree), QueryError> {
        if let Some(verb) = detect_update_intent(sentence) {
            self.metrics.record_query(obs::SpanOutcome::ValidateError);
            return Err(QueryError::update_intent(verb));
        }
        let key = self.cache_key_on(backend, sentence);
        let (outcome, cached) = match self.translations.get(&key, &self.metrics) {
            Some(memo) => {
                self.metrics.record_query(obs::SpanOutcome::CacheHit);
                (memo, true)
            }
            None => {
                // Surfacing the parse stage as its own
                // [`QueryError::Parse`] needs the raw failure, so the
                // `query` wrapper (which folds it into generic
                // feedback) is bypassed on a miss. Parse failures are
                // not memoised; parsing is cheap.
                let dep = match self.parse_stage(sentence) {
                    Ok(dep) => dep,
                    Err(e) => {
                        self.metrics.record_query(obs::SpanOutcome::ParseError);
                        return Err(e.into());
                    }
                };
                let out = self.query_tree(&dep);
                self.translations.insert(key, out.clone(), &self.metrics);
                (out, false)
            }
        };
        match outcome {
            Outcome::Translated(t) => {
                let (values, text, ordered) = self.run_translated(&t, backend, budget)?;
                Ok((
                    Answer {
                        values,
                        xquery: text,
                        backend,
                        ordered,
                        warnings: t.warnings,
                        cached,
                    },
                    t.tree,
                ))
            }
            Outcome::Rejected(r) => Err(QueryError::from(r)),
        }
    }

    /// Evaluate a translated query on `backend`: the values, the
    /// compiled query text in the backend's own language, and whether
    /// the plan carries an explicit result order.
    fn run_translated(
        &self,
        t: &Translated,
        backend: BackendKind,
        budget: &EvalBudget,
    ) -> Result<(Vec<String>, String, bool), QueryError> {
        let ordered = backend::sql::has_explicit_order(&t.translation);
        match backend {
            BackendKind::Xquery => {
                let seq = self
                    .engine
                    .eval_expr_with_budget(&t.translation.query, budget)?;
                Ok((
                    self.engine.strings(&seq),
                    xquery::pretty::pretty(&t.translation.query),
                    ordered,
                ))
            }
            BackendKind::Sql => {
                let (values, text) = self.run_sql(t, budget)?;
                Ok((values, text, ordered))
            }
        }
    }

    /// Lower the shared plan to the SQL subset and run it over the
    /// relational view, under [`obs::Stage::SqlTranslate`] and
    /// [`obs::Stage::SqlEval`] spans. Budget trips map to the same
    /// `budget.tuples` error class as the XQuery engine's.
    fn run_sql(
        &self,
        t: &Translated,
        budget: &EvalBudget,
    ) -> Result<(Vec<String>, String), QueryError> {
        let tspan = self.metrics.span(obs::Stage::SqlTranslate);
        let q = match backend::sql::lower(&t.translation) {
            Ok(q) => {
                tspan.finish(obs::SpanOutcome::Ok);
                q
            }
            Err(e) => {
                tspan.finish(obs::SpanOutcome::TranslateError);
                return Err(QueryError::Translate {
                    message: e.message,
                    suggestion: "The question uses a construct the SQL backend cannot \
                                 compile; please rephrase it more simply, or ask again \
                                 on the xquery backend."
                        .to_string(),
                });
            }
        };
        let shred = self.shredding();
        let limits = sqlq::ExecLimits {
            max_tuples: Some(budget.max_tuples as u64),
        };
        let espan = self.metrics.span(obs::Stage::SqlEval);
        match sqlq::execute(&shred, &q, &limits) {
            Ok(out) => {
                espan.finish(obs::SpanOutcome::Ok);
                self.metrics.add(obs::Counter::SqlTuples, out.tuples());
                self.metrics.add(obs::Counter::MemoHits, out.memo_hits());
                Ok((out.strings(&shred), sqlq::pretty(&q)))
            }
            Err(e @ sqlq::SqlError::Budget(limit)) => {
                espan.finish(obs::SpanOutcome::ResourceExhausted);
                self.metrics.add(obs::Counter::SqlTuples, limit);
                Err(QueryError::ResourceExhausted {
                    resource: xquery::ExhaustedResource::Tuples,
                    message: e.to_string(),
                    suggestion: "Answering this question requires combining too many \
                                 items at once. Please add a condition that narrows \
                                 the search (a name, a value, or a year), or split it \
                                 into smaller questions."
                        .to_string(),
                })
            }
            Err(e) => {
                espan.finish(obs::SpanOutcome::EvalError);
                Err(QueryError::Eval {
                    message: e.to_string(),
                    suggestion: "The question translated to a query the engine could \
                                 not run; please rephrase it more simply."
                        .to_string(),
                })
            }
        }
    }

    /// Hit/miss/size/eviction counters of the translation cache.
    ///
    /// The hit/miss pair is read from a single atomic in the metrics
    /// registry — always mutually consistent, and always equal to what
    /// [`Nalix::metrics`] reports. A shared registry (a successor's, or
    /// a `store` document's) counts the hits and misses of every
    /// pipeline recording into it; entries, capacity and evictions are
    /// this instance's. With recording switched off (`NALIX_OBS=off`),
    /// hits and misses read as zero (entries, capacity, and evictions
    /// are still live).
    pub fn cache_stats(&self) -> CacheStats {
        let (hits, misses) = self.metrics.cache_counts();
        CacheStats {
            backend: self.backend,
            hits,
            misses,
            entries: self.translations.len(),
            capacity: self.translations.capacity(),
            evictions: self.translations.evictions(),
        }
    }

    /// Snapshot of this instance's registry: stage spans, query
    /// outcomes, engine counters, cache counters — with this instance's
    /// cache entry gauge folded in. A shared registry also holds what
    /// the other pipelines recording into it did. See
    /// [`obs::MetricsSnapshot`] for merging, diffing, and rendering.
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.cache_entries = self.translations.len() as u64;
        snap
    }

    /// A clonable handle to this instance's registry (shared with its
    /// internal [`Engine`]).
    pub fn metrics_handle(&self) -> std::sync::Arc<obs::MetricsRegistry> {
        self.metrics.clone()
    }

    /// Drop all memoised translation outcomes (counters survive).
    pub fn clear_cache(&self) {
        self.translations.clear()
    }

    /// Convenience: query + execute, returning flat string values.
    pub fn ask(&self, sentence: &str) -> Result<Vec<String>, Rejected> {
        match self.query(sentence) {
            Outcome::Translated(t) => {
                let engine = &self.engine;
                match engine.eval_expr(&t.translation.query) {
                    Ok(seq) => Ok(engine.strings(&seq)),
                    Err(e) => Err(Rejected {
                        errors: vec![Feedback::error(FeedbackKind::GrammarViolation {
                            detail: format!("evaluation failed: {e}"),
                        })],
                        warnings: t.warnings.clone(),
                    }),
                }
            }
            Outcome::Rejected(r) => Err(r),
        }
    }

    /// Flatten a result sequence into the independent element/attribute
    /// values the paper's precision/recall metric counts ("we considered
    /// each element and attribute value as an independent value").
    pub fn flatten_values(&self, seq: &Sequence) -> Vec<String> {
        let mut out = Vec::new();
        for item in seq {
            self.flatten_item(item, &mut out);
        }
        out
    }

    fn flatten_item(&self, item: &Item, out: &mut Vec<String>) {
        match item {
            Item::Elem(e) => {
                for c in &e.children {
                    self.flatten_item(c, out);
                }
            }
            Item::Node(id) => {
                // Leaf values of the subtree: one entry per element or
                // attribute value.
                let doc = &self.doc;
                let mut found_child = false;
                for c in doc.children(*id) {
                    match doc.node(c).kind {
                        xmldb::NodeKind::Element | xmldb::NodeKind::Attribute => {
                            found_child = true;
                            self.flatten_item(&Item::Node(c), out);
                        }
                        xmldb::NodeKind::Text => {}
                    }
                }
                if !found_child {
                    out.push(doc.string_value(*id));
                }
            }
            other => out.push(other.string_value(&self.doc)),
        }
    }
}

/// Imperative verbs that ask for a mutation rather than an answer.
/// Deliberately disjoint from the parser's command verbs (`return`,
/// `find`, `list`, …), so no currently-answerable question changes
/// behaviour — every sentence these catch was a parse error before.
const UPDATE_VERBS: [&str; 13] = [
    "add", "change", "delete", "drop", "edit", "erase", "insert", "modify", "remove", "rename",
    "replace", "set", "update",
];

/// Lexical update-intent detection: does `sentence` lead with a
/// mutation verb ("Delete all the books …", "Please add a review …")?
/// Returns the verb when it does. Questions flagged here are *never*
/// applied — [`Nalix::answer`] and friends reject them with the typed
/// [`QueryError::UpdateIntent`] (`update.requires_confirmation`),
/// which points the caller at the explicit edit API instead
/// (docs/UPDATES.md). Detection is intentionally shallow: only the
/// leading word (after an optional "please") counts, so mutation
/// verbs in object position ("Find all the books that replace …")
/// never trigger it.
pub fn detect_update_intent(sentence: &str) -> Option<&'static str> {
    let mut words = sentence
        .split_whitespace()
        .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()));
    let mut first = words.next()?;
    if first.eq_ignore_ascii_case("please") {
        first = words.next()?;
    }
    UPDATE_VERBS
        .iter()
        .find(|v| first.eq_ignore_ascii_case(v))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb::datasets::movies::movies;

    #[test]
    fn end_to_end_accept() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone());
        let out = nalix
            .ask("Return the director of the movie, where the title of the movie is \"Traffic\".")
            .unwrap();
        assert_eq!(out, vec!["Steven Soderbergh"]);
    }

    #[test]
    fn end_to_end_reject_and_suggest() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone());
        let err = nalix
            .ask("Return every director who has directed as many movies as has Ron Howard.")
            .unwrap_err();
        assert!(err
            .errors
            .iter()
            .any(|f| f.message().contains("the same as")));
    }

    #[test]
    fn mutation_questions_are_refused_not_applied() {
        let doc = std::sync::Arc::new(movies());
        let nalix = Nalix::new(std::sync::Arc::clone(&doc));
        let before = doc.stats().total_nodes();
        for q in [
            "Delete all the movies directed by Ron Howard.",
            "Please remove the book titled \"Data on the Web\".",
            "Add a review to every movie.",
            "Update the year of the movie to 2001.",
        ] {
            let err = nalix.answer(q).unwrap_err();
            assert_eq!(err.code(), "update.requires_confirmation", "{q}");
            assert!(err.suggestion().contains("/update"), "{q}");
        }
        // Nothing was applied, and read questions are untouched.
        assert_eq!(doc.stats().total_nodes(), before);
        assert!(nalix
            .answer("Find all the movies directed by Ron Howard.")
            .is_ok());
        assert!(detect_update_intent("Find all the books that replace the old edition.").is_none());
        assert!(detect_update_intent("What about by Suciu?").is_none());
    }

    #[test]
    fn warnings_do_not_block() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone());
        match nalix.query("Return all movies and their titles.") {
            Outcome::Translated(t) => {
                assert!(!t.warnings.is_empty());
            }
            Outcome::Rejected(r) => panic!("{:?}", r.errors),
        }
    }

    #[test]
    fn flatten_values_expands_subtrees() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone());
        match nalix.query("Find all the movies directed by Ron Howard.") {
            Outcome::Translated(t) => {
                let seq = nalix.execute(&t).unwrap();
                let values = nalix.flatten_values(&seq);
                // each movie contributes its title and director values
                assert_eq!(values.len(), 4);
                assert!(values.contains(&"Ron Howard".to_owned()));
                assert!(values.contains(&"A Beautiful Mind".to_owned()));
            }
            Outcome::Rejected(r) => panic!("{:?}", r.errors),
        }
    }

    #[test]
    fn nalix_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Nalix>();
    }

    #[test]
    fn repeated_questions_hit_the_cache() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone());
        let q = "Find all the movies directed by Ron Howard.";
        let a = nalix.ask(q).unwrap();
        let b = nalix.ask(&format!("  {q}  ")).unwrap(); // whitespace-insensitive
        assert_eq!(a, b);
        let s = nalix.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        nalix.clear_cache();
        assert_eq!(nalix.cache_stats().entries, 0);
        assert_eq!(nalix.ask(q).unwrap(), a); // re-translates identically
    }

    #[test]
    fn trivially_reworded_repeats_hit_the_cache() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone());
        let a = nalix
            .ask("Find all the movies directed by Ron Howard.")
            .unwrap();
        // Unicode whitespace, curly quotes around nothing, and case
        // changes on closed-class words are tagging-equivalent — each
        // variant must hit, not re-translate.
        for variant in [
            "Find\u{00A0}all the movies\u{2009}directed by Ron Howard.",
            "find all the movies directed by Ron Howard.",
            "FIND ALL THE movies directed by Ron Howard.",
        ] {
            assert_eq!(nalix.ask(variant).unwrap(), a, "{variant:?}");
        }
        let s = nalix.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (3, 1, 1));
        // Case on a proper noun (a value) is meaning-bearing: miss.
        let _ = nalix.ask("Find all the movies directed by ron howard.");
        assert_eq!(nalix.cache_stats().misses, 2);
    }

    #[test]
    fn answer_full_values_match_answer_exactly() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone());
        let q = "Find all the movies directed by Ron Howard.";
        let plain = nalix.answer(q).unwrap();
        let full = nalix.answer_full(q, &EvalBudget::default()).unwrap();
        assert_eq!(full.values, plain);
        assert!(full.cached, "second submission should hit the cache");
        assert!(full.xquery.contains("for"), "xquery text: {}", full.xquery);
        let first = nalix
            .answer_full(
                "Return all movies and their titles.",
                &EvalBudget::default(),
            )
            .unwrap();
        assert!(!first.cached);
        assert!(!first.warnings.is_empty());
    }

    #[test]
    fn backend_joins_the_cache_key() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone());
        let q = "Find all the movies directed by Ron Howard.";
        let budget = EvalBudget::default();
        let a = nalix
            .answer_full_on(BackendKind::Xquery, q, &budget)
            .unwrap();
        let b = nalix.answer_full_on(BackendKind::Sql, q, &budget).unwrap();
        // Same question on the other backend is a distinct cache entry:
        // two misses, zero hits, two entries.
        let s = nalix.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
        assert_eq!(s.backend, BackendKind::Xquery);
        // Repeats on either backend hit their own entry.
        assert!(
            nalix
                .answer_full_on(BackendKind::Sql, q, &budget)
                .unwrap()
                .cached
        );
        assert!(
            nalix
                .answer_full_on(BackendKind::Xquery, q, &budget)
                .unwrap()
                .cached
        );
        assert_eq!(nalix.cache_stats().hits, 2);
        // And the two backends agree on the answer set.
        assert_eq!(a.backend, BackendKind::Xquery);
        assert_eq!(b.backend, BackendKind::Sql);
        assert!(b.xquery.starts_with("SELECT"), "sql text: {}", b.xquery);
        assert!(
            AnswerSet::new(a.values, a.ordered).equivalent(&AnswerSet::new(b.values, b.ordered))
        );
    }

    #[test]
    fn sql_backend_answers_end_to_end() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone()).with_backend(BackendKind::Sql);
        assert_eq!(nalix.backend(), BackendKind::Sql);
        let out = nalix
            .answer(
                "Return the director of the movie, where the title of the movie is \"Traffic\".",
            )
            .unwrap();
        assert_eq!(out, vec!["Steven Soderbergh"]);
        let snap = nalix.metrics();
        assert!(snap.counter(obs::Counter::SqlTuples) > 0);
    }

    #[test]
    fn sql_backend_budget_trips_as_tuple_exhaustion() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone()).with_backend(BackendKind::Sql);
        let budget = EvalBudget {
            max_tuples: 1,
            ..EvalBudget::default()
        };
        let err = nalix
            .answer_with_budget("Return all movies and their titles.", &budget)
            .unwrap_err();
        assert_eq!(err.code(), "budget.tuples");
        assert!(!err.suggestion().is_empty());
    }

    #[test]
    fn bounded_cache_evicts_and_keeps_answering() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone()).with_cache_capacity(2);
        assert_eq!(nalix.cache_stats().capacity, 2);
        let questions = [
            "Find all the movies directed by Ron Howard.",
            "Return the director of the movie, where the title of the movie is \"Traffic\".",
            "Return all movies and their titles.",
            "Return the title of every movie.",
        ];
        let first: Vec<_> = questions.iter().map(|q| nalix.ask(q).ok()).collect();
        let s = nalix.cache_stats();
        assert_eq!(s.entries, 2, "capacity bound violated");
        assert_eq!(s.evictions, 2);
        // Evicted questions re-translate to the same replies.
        let second: Vec<_> = questions.iter().map(|q| nalix.ask(q).ok()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn successor_records_into_the_prior_registry() {
        let prior = Nalix::new(movies());
        prior.ask("Return every title.").unwrap();
        let mut up = prior.doc().begin_update().unwrap();
        up.apply(&xmldb::Edit::InsertChild {
            parent: prior.doc().root(),
            node: xmldb::NewNode::Leaf {
                label: "note".into(),
                text: "edited".into(),
            },
        })
        .unwrap();
        let (next, stats) = up.commit();
        let successor = Nalix::successor(&prior, next, &stats);
        assert!(std::sync::Arc::ptr_eq(
            &prior.metrics_handle(),
            &successor.metrics_handle()
        ));
        successor.ask("Return every title.").unwrap();
        assert_eq!(prior.metrics().queries_total(), 2);
        assert_eq!(successor.cache_stats().entries, 1);
    }

    #[test]
    fn unparseable_sentence_is_rejected_gracefully() {
        let doc = movies();
        let nalix = Nalix::new(doc.clone());
        let out = nalix.query("The weather is nice today.");
        assert!(!out.is_translated());
    }
}
