#![warn(missing_docs)]
// The recording paths run inside the NL→answer pipeline; a panic in a
// metrics call would violate the paper's Sec. 4 "always answer with
// feedback" contract, so the escape hatches are denied just as in the
// query-path crates.
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

//! # obs — pipeline observability
//!
//! NaLIX's evaluation (paper Sec. 5) is entirely per-stage: where
//! queries fail (Table 7), and where time goes (Figs. 11–12). This
//! crate is that breakdown as a library: a lock-free [`MetricsRegistry`]
//! of counters and fixed-bucket latency histograms, a [`StageSpan`]
//! guard that times one pipeline stage and files its outcome, and a
//! plain-data [`MetricsSnapshot`] that can be merged across threads,
//! diffed, pretty-printed, or dumped in Prometheus text format.
//!
//! Two off switches, from coarsest to finest:
//!
//! 1. **Environment** — set `NALIX_OBS=off` (or `0`, `false`, `no`) and
//!    registries start disabled.
//! 2. **Runtime** — [`MetricsRegistry::set_enabled`] flips one atomic.
//!
//! ## Quick start
//!
//! ```
//! use obs::{MetricsRegistry, SpanOutcome, Stage};
//!
//! let reg = MetricsRegistry::new();
//! {
//!     let span = reg.span(Stage::Parse); // starts the clock
//!     // … do the stage's work …
//!     span.finish(SpanOutcome::Ok); // files wall time + outcome
//! }
//! reg.record_query(SpanOutcome::Ok);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.stage(Stage::Parse).spans(), 1);
//! assert_eq!(snap.queries_with(SpanOutcome::Ok), 1);
//! println!("{snap}"); // human-readable per-stage table
//! ```
//!
//! ## Recording model
//!
//! - A **span** ([`MetricsRegistry::span`]) times one stage *run*. A
//!   cache hit short-circuits the pipeline, so a hit produces a
//!   [`SpanOutcome::CacheHit`] *query* outcome and **no** parse /
//!   classify / validate / translate spans — "exactly one translate
//!   span per cache miss, zero per hit" is an invariant the test suite
//!   checks.
//! - A **query outcome** ([`MetricsRegistry::record_query`]) classifies
//!   one end-to-end submission: ok, cache hit, or the failing stage.
//! - **Counters** ([`MetricsRegistry::add`]) count engine work items:
//!   tokens, LCA queries, value-index probes, evaluator tuples.
//! - **Max gauges** ([`MetricsRegistry::record_max`]) keep high-water
//!   marks, e.g. the deepest evaluator recursion seen.
//! - The **cache pair** ([`MetricsRegistry::cache_hit`] /
//!   [`cache_miss`](MetricsRegistry::cache_miss)) is stored packed in a
//!   single atomic so [`cache_counts`](MetricsRegistry::cache_counts)
//!   always reads a consistent (hits, misses) pair.
//!
//! All recording is wait-free on the hot path: relaxed atomic
//! increments, a sharded counter for the highest-frequency events, and
//! no allocation anywhere. See `docs/OBSERVABILITY.md` in the
//! repository for the full metric catalog.

use std::fmt;

/// Number of latency-histogram buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 starts at zero, the last
/// bucket is open-ended at ~18 minutes). Log-2 buckets give ~1.4×
/// relative error on quantiles over the whole ns→minutes range with a
/// fixed 320-byte footprint per histogram.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Map a duration in nanoseconds to its histogram bucket.
fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    ((63 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Exclusive upper bound (in nanoseconds) of histogram bucket `i`.
fn bucket_upper_ns(i: usize) -> u64 {
    1u64 << (i + 1).min(63)
}

/// One pipeline stage, in execution order (paper Fig. 2), followed by
/// the `nalixd` HTTP endpoints — the serving layer reuses the span
/// machinery, so every endpoint gets the same outcome accounting and
/// latency histogram a pipeline stage does.
///
/// ```
/// use obs::Stage;
/// let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
/// assert_eq!(
///     names,
///     [
///         "parse", "classify", "validate", "translate", "eval",
///         "sql_translate", "sql_eval",
///         "store_load", "store_reload", "store_update",
///         "index_patch", "index_rebuild",
///         "http_query", "http_batch", "http_health", "http_metrics",
///         "http_docs", "http_update"
///     ]
/// );
/// assert!(!Stage::Eval.is_http());
/// assert!(!Stage::StoreLoad.is_http());
/// assert!(!Stage::IndexPatch.is_http());
/// assert!(Stage::HttpQuery.is_http());
/// assert!(Stage::HttpDocs.is_http());
/// assert!(Stage::HttpUpdate.is_http());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Dependency parsing of the English sentence (`nlparser`).
    Parse,
    /// Token/marker classification (paper Tables 1–2).
    Classify,
    /// Grammar + database validation with feedback (paper Table 6).
    Validate,
    /// Mapping to Schema-Free XQuery (paper Sec. 3).
    Translate,
    /// Evaluation of the translated query (`xquery` engine).
    Eval,
    /// Lowering the shared FLWOR plan to the SQL subset (the `sql`
    /// backend's second translation stage; the XQuery backend has no
    /// counterpart — its plan *is* the emitted expression).
    SqlTranslate,
    /// Evaluation of a lowered SQL query by the `sqlq` executor over
    /// the relational view of the document (the `sql` backend's analog
    /// of [`Stage::Eval`]).
    SqlEval,
    /// One first-time construction of a document pipeline by the
    /// `store` crate: dataset generation or XML parse, plus structural
    /// index, catalog, and engine construction.
    StoreLoad,
    /// One hot-swap rebuild of an already-resident document pipeline
    /// (`PUT /docs/:name` on a loaded document). Same work as
    /// [`Stage::StoreLoad`], accounted separately so reload latency is
    /// visible on its own.
    StoreReload,
    /// One node-level update batch applied to a resident document
    /// pipeline (`DocumentStore::update` / `POST /docs/:name/update`):
    /// edit validation, overlay commit, and successor-pipeline
    /// construction, end to end.
    StoreUpdate,
    /// The index-maintenance slice of an update batch that took the
    /// **incremental patch** path: structural index, postings, and
    /// catalog/value indexes folded forward from the pending overlay
    /// without touching untouched regions.
    IndexPatch,
    /// The index-maintenance slice of an update batch that fell back to
    /// a **from-scratch rebuild** (the edit footprint was too large for
    /// patching to pay off). The patch/rebuild span split is the
    /// incremental-maintenance observability contract.
    IndexRebuild,
    /// One served `POST /query` request (`nalixd`), end to end —
    /// admission wait excluded, body parse through response write
    /// included.
    HttpQuery,
    /// One served `POST /batch` request (`nalixd`).
    HttpBatch,
    /// One served `GET /health` request (`nalixd`).
    HttpHealth,
    /// One served `GET /metrics` request (`nalixd`).
    HttpMetrics,
    /// One served document-admin request (`GET /docs`,
    /// `PUT /docs/:name`, `DELETE /docs/:name`).
    HttpDocs,
    /// One served `POST /docs/:name/update` request (`nalixd`).
    HttpUpdate,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 18;

    /// All stages, in pipeline order (store lifecycle spans and HTTP
    /// endpoints last).
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Parse,
        Stage::Classify,
        Stage::Validate,
        Stage::Translate,
        Stage::Eval,
        Stage::SqlTranslate,
        Stage::SqlEval,
        Stage::StoreLoad,
        Stage::StoreReload,
        Stage::StoreUpdate,
        Stage::IndexPatch,
        Stage::IndexRebuild,
        Stage::HttpQuery,
        Stage::HttpBatch,
        Stage::HttpHealth,
        Stage::HttpMetrics,
        Stage::HttpDocs,
        Stage::HttpUpdate,
    ];

    /// Dense index of this stage (its position in [`Stage::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for the serving-layer endpoint spans, false for the five
    /// NL→answer pipeline stages and the store lifecycle spans.
    pub fn is_http(self) -> bool {
        matches!(
            self,
            Stage::HttpQuery
                | Stage::HttpBatch
                | Stage::HttpHealth
                | Stage::HttpMetrics
                | Stage::HttpDocs
                | Stage::HttpUpdate
        )
    }

    /// The stage's snake_case name, as used in metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Classify => "classify",
            Stage::Validate => "validate",
            Stage::Translate => "translate",
            Stage::Eval => "eval",
            Stage::SqlTranslate => "sql_translate",
            Stage::SqlEval => "sql_eval",
            Stage::StoreLoad => "store_load",
            Stage::StoreReload => "store_reload",
            Stage::StoreUpdate => "store_update",
            Stage::IndexPatch => "index_patch",
            Stage::IndexRebuild => "index_rebuild",
            Stage::HttpQuery => "http_query",
            Stage::HttpBatch => "http_batch",
            Stage::HttpHealth => "http_health",
            Stage::HttpMetrics => "http_metrics",
            Stage::HttpDocs => "http_docs",
            Stage::HttpUpdate => "http_update",
        }
    }
}

/// How one stage run — or one end-to-end query — ended.
///
/// The error variants mirror the `nalix::QueryError` taxonomy one to
/// one, so per-outcome counts reproduce the paper's Table 7 failure
/// classes; [`SpanOutcome::CacheHit`] marks the short-circuit where a
/// memoised translation skipped the pipeline entirely.
///
/// ```
/// use obs::SpanOutcome;
/// assert_eq!(SpanOutcome::CacheHit.name(), "cache_hit");
/// assert!(!SpanOutcome::CacheHit.is_error());
/// assert!(SpanOutcome::ValidateError.is_error());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanOutcome {
    /// The stage (or query) completed successfully.
    Ok,
    /// The translation cache answered; the pipeline did not run.
    CacheHit,
    /// The dependency parser rejected the sentence.
    ParseError,
    /// One or more words were outside the vocabulary.
    ClassifyError,
    /// The parse tree violated the grammar or named nothing in the
    /// database.
    ValidateError,
    /// The validated tree could not be mapped to XQuery.
    TranslateError,
    /// Evaluation failed (unbound variable, type error, …).
    EvalError,
    /// An evaluator resource budget tripped (depth / time / tuples).
    ResourceExhausted,
}

impl SpanOutcome {
    /// Number of outcomes.
    pub const COUNT: usize = 8;

    /// All outcomes, in [`SpanOutcome::index`] order.
    pub const ALL: [SpanOutcome; SpanOutcome::COUNT] = [
        SpanOutcome::Ok,
        SpanOutcome::CacheHit,
        SpanOutcome::ParseError,
        SpanOutcome::ClassifyError,
        SpanOutcome::ValidateError,
        SpanOutcome::TranslateError,
        SpanOutcome::EvalError,
        SpanOutcome::ResourceExhausted,
    ];

    /// Dense index of this outcome (its position in [`SpanOutcome::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The outcome's snake_case name, as used in metric labels.
    pub fn name(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::CacheHit => "cache_hit",
            SpanOutcome::ParseError => "parse_error",
            SpanOutcome::ClassifyError => "classify_error",
            SpanOutcome::ValidateError => "validate_error",
            SpanOutcome::TranslateError => "translate_error",
            SpanOutcome::EvalError => "eval_error",
            SpanOutcome::ResourceExhausted => "resource_exhausted",
        }
    }

    /// True for every variant except [`SpanOutcome::Ok`] and
    /// [`SpanOutcome::CacheHit`].
    pub fn is_error(self) -> bool {
        !matches!(self, SpanOutcome::Ok | SpanOutcome::CacheHit)
    }
}

/// A monotonically increasing work counter.
///
/// Counters count *engine work items* (tokens, index probes, tuples) as
/// opposed to stage runs; see `docs/OBSERVABILITY.md` for the catalog
/// with the paper artifact each one maps to.
///
/// ```
/// use obs::{Counter, MetricsRegistry};
/// let reg = MetricsRegistry::new();
/// reg.add(Counter::LcaQueries, 3);
/// assert_eq!(reg.snapshot().counter(Counter::LcaQueries), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Raw tokens produced by the `nlparser` tokenizer.
    Tokens,
    /// Tokenizer invocations (parsing *and* cache-key normalization).
    TokenizerCalls,
    /// Sentences the dependency parser accepted.
    ParsedSentences,
    /// Sentences the dependency parser rejected.
    ParseFailures,
    /// Error-severity feedback items produced by validation.
    ValidateErrors,
    /// Warning-severity feedback items produced by validation.
    ValidateWarnings,
    /// FLWOR candidate tuples materialized by the evaluator (the
    /// quantity `EvalBudget::max_tuples` bounds).
    EvalTuples,
    /// Value-index fetches (one per label per FLWOR binding that takes
    /// the equality-join fast path).
    ValueIndexLookups,
    /// Value-index constructions (first touch of a label; duplicates
    /// from racing threads count too).
    ValueIndexBuilds,
    /// `mqf()` meaningful-relatedness checks evaluated.
    MqfChecks,
    /// Indexed mqf partner enumerations (the candidate generator behind
    /// schema-free `for` bindings).
    MqfPartnerLookups,
    /// Worker shards spawned for intra-query parallel FLWOR loops (one
    /// per chunk of a sharded binding-expansion or return loop).
    EvalShardSpawns,
    /// Lowest-common-ancestor queries answered by `xmldb`'s
    /// `Document::lca`.
    LcaQueries,
    /// Path-child queries answered by `xmldb`'s `Document::child_toward`.
    ChildTowardQueries,
    /// Label-in-subtree range probes answered by `xmldb`.
    SubtreeProbes,
    /// HTTP requests admitted and parsed by `nalixd` (all endpoints,
    /// before routing; sheds and unparseable requests are not
    /// included).
    HttpRequests,
    /// Connections shed with `503 Service Unavailable` because the
    /// admission queue was full.
    HttpShed,
    /// Requests refused before routing: malformed request line or
    /// headers, oversized body, unknown path, wrong method.
    HttpBadRequests,
    /// Keep-alive connection reuse: requests parsed on a connection
    /// that had already served at least one request (a measure of how
    /// many TCP handshakes keep-alive saved).
    HttpKeepaliveReuse,
    /// Connections answered `408 Request Timeout` because a request
    /// stalled mid-parse past the read timeout (at least one byte had
    /// arrived; zero-byte idle connections are closed silently).
    HttpTimeouts,
    /// `epoll_wait` returns that delivered at least one event to the
    /// `nalixd` event loop (timeout-only ticks are not counted).
    EpollWakeups,
    /// Translation-cache entries evicted to stay under the configured
    /// capacity (`nalix` bounded clock cache).
    CacheEvictions,
    /// Document pipelines built for the first time by the `store`
    /// crate (eager registration, lazy first query, or `PUT` of a new
    /// name).
    StoreLoads,
    /// Document pipelines rebuilt in place (hot-swap reload of an
    /// already-resident document).
    StoreReloads,
    /// Document pipelines dropped from residency — admin `DELETE`,
    /// replacement by a reload, or capacity-bounded eviction of a cold
    /// document.
    StoreEvictions,
    /// Requests naming a document the store does not know.
    StoreMisses,
    /// Conversational sessions created (first request carrying a new
    /// session id).
    SessionCreates,
    /// Requests that found live context under their session id.
    SessionHits,
    /// Sessions retired without being resumable: TTL expiry, LRU
    /// eviction, or invalidation by a document reload/eviction.
    SessionExpired,
    /// Follow-up questions whose anaphor or ellipsis was resolved
    /// against a prior turn (refinement grafts and "what about"
    /// substitutions both count once per resolved question).
    AnaphoraResolved,
    /// Node-level update batches committed by the `store` crate (one
    /// per successful `DocumentStore::update`, whatever the commit
    /// strategy).
    DocUpdates,
    /// Update batches whose index maintenance took the incremental
    /// patch path (order splice + one stack pass over the spliced order
    /// instead of a from-scratch rebuild).
    IndexPatches,
    /// Update batches whose index maintenance fell back to a
    /// from-scratch rebuild because the edit footprint was too large
    /// to patch profitably.
    IndexRebuilds,
    /// Update requests refused because the caller's expected
    /// generation no longer matched the resident document (optimistic
    /// concurrency conflicts, answered `409`).
    UpdateConflicts,
    /// Binding tuples enumerated by the SQL backend's `sqlq` executor
    /// (the quantity its tuple budget bounds — the relational analog
    /// of [`Counter::EvalTuples`]).
    SqlTuples,
    /// Correlated bodies answered from a per-query memo instead of
    /// being evaluated again: a `let` body of the XQuery engine, or a
    /// scalar or `EXISTS` subquery of the SQL backend, that sees the
    /// outer tuple only through value comparisons (the paper's Fig. 6
    /// grouping shape) and met a key it had already evaluated.
    MemoHits,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 36;

    /// All counters, in [`Counter::index`] order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Tokens,
        Counter::TokenizerCalls,
        Counter::ParsedSentences,
        Counter::ParseFailures,
        Counter::ValidateErrors,
        Counter::ValidateWarnings,
        Counter::EvalTuples,
        Counter::ValueIndexLookups,
        Counter::ValueIndexBuilds,
        Counter::MqfChecks,
        Counter::MqfPartnerLookups,
        Counter::EvalShardSpawns,
        Counter::LcaQueries,
        Counter::ChildTowardQueries,
        Counter::SubtreeProbes,
        Counter::HttpRequests,
        Counter::HttpShed,
        Counter::HttpBadRequests,
        Counter::HttpKeepaliveReuse,
        Counter::HttpTimeouts,
        Counter::EpollWakeups,
        Counter::CacheEvictions,
        Counter::StoreLoads,
        Counter::StoreReloads,
        Counter::StoreEvictions,
        Counter::StoreMisses,
        Counter::SessionCreates,
        Counter::SessionHits,
        Counter::SessionExpired,
        Counter::AnaphoraResolved,
        Counter::DocUpdates,
        Counter::IndexPatches,
        Counter::IndexRebuilds,
        Counter::UpdateConflicts,
        Counter::SqlTuples,
        Counter::MemoHits,
    ];

    /// Dense index of this counter (its position in [`Counter::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The counter's snake_case name, as used in metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Tokens => "tokens",
            Counter::TokenizerCalls => "tokenizer_calls",
            Counter::ParsedSentences => "parsed_sentences",
            Counter::ParseFailures => "parse_failures",
            Counter::ValidateErrors => "validate_errors",
            Counter::ValidateWarnings => "validate_warnings",
            Counter::EvalTuples => "eval_tuples",
            Counter::ValueIndexLookups => "value_index_lookups",
            Counter::ValueIndexBuilds => "value_index_builds",
            Counter::MqfChecks => "mqf_checks",
            Counter::MqfPartnerLookups => "mqf_partner_lookups",
            Counter::EvalShardSpawns => "eval_shard_spawns",
            Counter::LcaQueries => "lca_queries",
            Counter::ChildTowardQueries => "child_toward_queries",
            Counter::SubtreeProbes => "subtree_probes",
            Counter::HttpRequests => "http_requests",
            Counter::HttpShed => "http_shed",
            Counter::HttpBadRequests => "http_bad_requests",
            Counter::HttpKeepaliveReuse => "http_keepalive_reuse",
            Counter::HttpTimeouts => "http_timeouts",
            Counter::EpollWakeups => "epoll_wakeups",
            Counter::CacheEvictions => "cache_evictions",
            Counter::StoreLoads => "store_loads",
            Counter::StoreReloads => "store_reloads",
            Counter::StoreEvictions => "store_evictions",
            Counter::StoreMisses => "store_misses",
            Counter::SessionCreates => "session_create",
            Counter::SessionHits => "session_hit",
            Counter::SessionExpired => "session_expired",
            Counter::AnaphoraResolved => "anaphora_resolved",
            Counter::DocUpdates => "doc_updates",
            Counter::IndexPatches => "index_patches",
            Counter::IndexRebuilds => "index_rebuilds",
            Counter::UpdateConflicts => "update_conflicts",
            Counter::SqlTuples => "sql_tuples",
            Counter::MemoHits => "memo_hits",
        }
    }
}

/// A high-water-mark gauge (recorded with `fetch_max`).
///
/// ```
/// use obs::{MaxGauge, MetricsRegistry};
/// let reg = MetricsRegistry::new();
/// reg.record_max(MaxGauge::EvalDepthHighWater, 7);
/// reg.record_max(MaxGauge::EvalDepthHighWater, 3); // lower: ignored
/// assert_eq!(reg.snapshot().max(MaxGauge::EvalDepthHighWater), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaxGauge {
    /// Deepest expression recursion any evaluation reached (the
    /// quantity `EvalBudget::max_depth` bounds).
    EvalDepthHighWater,
    /// Deepest the `nalixd` admission queue ever got (the quantity its
    /// `--queue` capacity bounds; reaching the capacity means
    /// load-shedding began).
    QueueDepthHighWater,
    /// Most connections the `nalixd` event loop ever held open at
    /// once (the quantity its `--max-connections` cap bounds).
    OpenConnectionsHighWater,
    /// Largest pending-update overlay (edit count) any batch reached
    /// before commit — how much deferred index maintenance the
    /// epoch-batching write path ever accumulated.
    UpdateOverlayHighWater,
}

impl MaxGauge {
    /// Number of gauges.
    pub const COUNT: usize = 4;

    /// All gauges, in [`MaxGauge::index`] order.
    pub const ALL: [MaxGauge; MaxGauge::COUNT] = [
        MaxGauge::EvalDepthHighWater,
        MaxGauge::QueueDepthHighWater,
        MaxGauge::OpenConnectionsHighWater,
        MaxGauge::UpdateOverlayHighWater,
    ];

    /// Dense index of this gauge (its position in [`MaxGauge::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The gauge's snake_case name, as used in metric labels.
    pub fn name(self) -> &'static str {
        match self {
            MaxGauge::EvalDepthHighWater => "eval_depth_high_water",
            MaxGauge::QueueDepthHighWater => "queue_depth_high_water",
            MaxGauge::OpenConnectionsHighWater => "open_connections_high_water",
            MaxGauge::UpdateOverlayHighWater => "update_overlay_high_water",
        }
    }
}

/// A point-in-time copy of one latency histogram: plain data, safe to
/// clone, merge, and diff.
///
/// Quantiles are derived from the cumulative bucket counts, so they are
/// *bucket upper bounds* — within 2× of the true value by construction
/// of the log-2 buckets, with no allocation or per-sample storage.
///
/// ```
/// use obs::HistogramSnapshot;
/// let mut h = HistogramSnapshot::new();
/// // Three samples by hand: 100ns, 100ns, 1500ns.
/// h.count = 3;
/// h.sum_ns = 1700;
/// h.buckets[6] = 2; // [64, 128)
/// h.buckets[10] = 1; // [1024, 2048)
/// assert_eq!(h.quantile_ns(0.50), 128); // upper bound of [64, 128)
/// assert_eq!(h.quantile_ns(0.99), 2048);
/// assert_eq!(h.mean_ns(), 566);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded durations, in nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// An empty histogram.
    pub fn new() -> Self {
        HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Add `other`'s samples into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Samples recorded since `earlier` (fields subtracted pairwise).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        out.count = out.count.saturating_sub(earlier.count);
        out.sum_ns = out.sum_ns.saturating_sub(earlier.sum_ns);
        for (b, e) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(*e);
        }
        out
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) in nanoseconds, as
    /// the upper bound of the bucket containing that rank. Zero when
    /// the histogram is empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(b);
            if cum >= rank {
                return bucket_upper_ns(i);
            }
        }
        bucket_upper_ns(HISTOGRAM_BUCKETS - 1)
    }

    /// Exact mean duration in nanoseconds (zero when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::new()
    }
}

/// Per-stage slice of a [`MetricsSnapshot`]: one outcome counter per
/// [`SpanOutcome`] plus the stage's latency histogram.
///
/// ```
/// use obs::{MetricsRegistry, SpanOutcome, Stage};
/// let reg = MetricsRegistry::new();
/// reg.span(Stage::Validate).finish(SpanOutcome::ValidateError);
/// let s = reg.snapshot();
/// assert_eq!(s.stage(Stage::Validate).spans(), 1);
/// assert_eq!(s.stage(Stage::Validate).errors(), 1);
/// assert_eq!(s.stage(Stage::Validate).ok(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Span counts indexed by [`SpanOutcome::index`].
    pub outcomes: [u64; SpanOutcome::COUNT],
    /// Wall-time distribution of the stage's spans.
    pub latency: HistogramSnapshot,
}

impl StageSnapshot {
    /// An empty stage snapshot.
    pub fn new() -> Self {
        StageSnapshot {
            outcomes: [0; SpanOutcome::COUNT],
            latency: HistogramSnapshot::new(),
        }
    }

    /// Total spans recorded for this stage.
    pub fn spans(&self) -> u64 {
        self.outcomes.iter().sum()
    }

    /// Spans that ended in [`SpanOutcome::Ok`].
    pub fn ok(&self) -> u64 {
        self.outcomes[SpanOutcome::Ok.index()]
    }

    /// Spans that ended in an error outcome.
    pub fn errors(&self) -> u64 {
        SpanOutcome::ALL
            .iter()
            .filter(|o| o.is_error())
            .map(|o| self.outcomes[o.index()])
            .sum()
    }

    /// Spans with the given outcome.
    pub fn with_outcome(&self, outcome: SpanOutcome) -> u64 {
        self.outcomes[outcome.index()]
    }

    /// Add `other`'s spans into `self`.
    pub fn merge(&mut self, other: &StageSnapshot) {
        for (a, b) in self.outcomes.iter_mut().zip(other.outcomes.iter()) {
            *a = a.saturating_add(*b);
        }
        self.latency.merge(&other.latency);
    }

    /// Spans recorded since `earlier`.
    pub fn delta(&self, earlier: &StageSnapshot) -> StageSnapshot {
        let mut out = *self;
        for (a, b) in out.outcomes.iter_mut().zip(earlier.outcomes.iter()) {
            *a = a.saturating_sub(*b);
        }
        out.latency = out.latency.delta(&earlier.latency);
        out
    }
}

impl Default for StageSnapshot {
    fn default() -> Self {
        StageSnapshot::new()
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`]: plain data,
/// mergeable across registries, diffable across runs, and
/// renderable as a table ([`fmt::Display`]) or Prometheus text
/// ([`MetricsSnapshot::to_prometheus`]).
///
/// ```
/// use obs::{Counter, MetricsRegistry, SpanOutcome, Stage};
///
/// // Two workers record into separate registries…
/// let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
/// a.span(Stage::Translate).finish(SpanOutcome::Ok);
/// a.add(Counter::EvalTuples, 10);
/// b.span(Stage::Translate).finish(SpanOutcome::Ok);
/// b.add(Counter::EvalTuples, 32);
///
/// // …and their snapshots merge into the combined totals.
/// let mut total = a.snapshot();
/// total.merge(&b.snapshot());
/// assert_eq!(total.stage(Stage::Translate).spans(), 2);
/// assert_eq!(total.counter(Counter::EvalTuples), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Per-stage outcomes and latency, indexed by [`Stage::index`].
    pub stages: [StageSnapshot; Stage::COUNT],
    /// End-to-end query outcomes, indexed by [`SpanOutcome::index`].
    /// Unlike stage spans, every submission lands here exactly once —
    /// including cache hits, which produce no stage spans at all.
    pub queries: [u64; SpanOutcome::COUNT],
    /// Work counters, indexed by [`Counter::index`].
    pub counters: [u64; Counter::COUNT],
    /// High-water marks, indexed by [`MaxGauge::index`].
    pub maxes: [u64; MaxGauge::COUNT],
    /// Translation-cache hits (consistent with `cache_misses`: both
    /// halves are read from one atomic).
    pub cache_hits: u64,
    /// Translation-cache misses.
    pub cache_misses: u64,
    /// Translation-cache resident entries (a gauge; only populated by
    /// callers that know the cache, e.g. `nalix::Nalix::metrics`).
    pub cache_entries: u64,
}

impl MetricsSnapshot {
    /// An all-zero snapshot (what a disabled registry produces).
    pub fn new() -> Self {
        MetricsSnapshot {
            stages: [StageSnapshot::new(); Stage::COUNT],
            queries: [0; SpanOutcome::COUNT],
            counters: [0; Counter::COUNT],
            maxes: [0; MaxGauge::COUNT],
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
        }
    }

    /// The snapshot slice for one stage.
    pub fn stage(&self, stage: Stage) -> &StageSnapshot {
        &self.stages[stage.index()]
    }

    /// Total end-to-end query submissions recorded.
    pub fn queries_total(&self) -> u64 {
        self.queries.iter().sum()
    }

    /// Query submissions that ended with the given outcome.
    pub fn queries_with(&self, outcome: SpanOutcome) -> u64 {
        self.queries[outcome.index()]
    }

    /// The value of one work counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The value of one high-water gauge.
    pub fn max(&self, gauge: MaxGauge) -> u64 {
        self.maxes[gauge.index()]
    }

    /// Add `other`'s totals into `self`. Counts sum; high-water marks
    /// take the maximum; `cache_entries` sums (distinct registries
    /// serve distinct caches).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.stages.iter_mut().zip(other.stages.iter()) {
            a.merge(b);
        }
        for (a, b) in self.queries.iter_mut().zip(other.queries.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.maxes.iter_mut().zip(other.maxes.iter()) {
            *a = (*a).max(*b);
        }
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(other.cache_misses);
        self.cache_entries = self.cache_entries.saturating_add(other.cache_entries);
    }

    /// Everything recorded since `earlier` was taken from the same
    /// registry: counts subtract pairwise; high-water marks and
    /// `cache_entries` keep their current (later) values, since neither
    /// is a monotone counter a difference would make sense for.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = *self;
        for (a, b) in out.stages.iter_mut().zip(earlier.stages.iter()) {
            *a = a.delta(b);
        }
        for (a, b) in out.queries.iter_mut().zip(earlier.queries.iter()) {
            *a = a.saturating_sub(*b);
        }
        for (a, b) in out.counters.iter_mut().zip(earlier.counters.iter()) {
            *a = a.saturating_sub(*b);
        }
        out.cache_hits = out.cache_hits.saturating_sub(earlier.cache_hits);
        out.cache_misses = out.cache_misses.saturating_sub(earlier.cache_misses);
        out
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (counters as `nalix_*_total`, stage latency as a native
    /// histogram with log-2 `le` bounds in seconds).
    ///
    /// ```
    /// use obs::{MetricsRegistry, SpanOutcome, Stage};
    /// let reg = MetricsRegistry::new();
    /// reg.span(Stage::Eval).finish(SpanOutcome::Ok);
    /// let text = reg.snapshot().to_prometheus();
    /// assert!(text.contains("nalix_stage_spans_total{stage=\"eval\",outcome=\"ok\"} 1"));
    /// assert!(text.contains("nalix_stage_duration_seconds_count{stage=\"eval\"} 1"));
    /// ```
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(16 * 1024);
        // An infallible writer: `fmt::Write` on `String` never errors.
        macro_rules! w {
            ($($arg:tt)*) => { let _ = writeln!(out, $($arg)*); };
        }
        w!("# HELP nalix_queries_total End-to-end query submissions by outcome.");
        w!("# TYPE nalix_queries_total counter");
        for o in SpanOutcome::ALL {
            w!(
                "nalix_queries_total{{outcome=\"{}\"}} {}",
                o.name(),
                self.queries_with(o)
            );
        }
        w!("# HELP nalix_stage_spans_total Pipeline stage runs by stage and outcome.");
        w!("# TYPE nalix_stage_spans_total counter");
        for s in Stage::ALL {
            for o in SpanOutcome::ALL {
                w!(
                    "nalix_stage_spans_total{{stage=\"{}\",outcome=\"{}\"}} {}",
                    s.name(),
                    o.name(),
                    self.stage(s).with_outcome(o)
                );
            }
        }
        w!("# HELP nalix_stage_duration_seconds Wall time per stage run.");
        w!("# TYPE nalix_stage_duration_seconds histogram");
        for s in Stage::ALL {
            let hist = &self.stage(s).latency;
            let mut cum = 0u64;
            for (i, &b) in hist.buckets.iter().enumerate() {
                cum = cum.saturating_add(b);
                w!(
                    "nalix_stage_duration_seconds_bucket{{stage=\"{}\",le=\"{}\"}} {}",
                    s.name(),
                    bucket_upper_ns(i) as f64 / 1e9,
                    cum
                );
            }
            w!(
                "nalix_stage_duration_seconds_bucket{{stage=\"{}\",le=\"+Inf\"}} {}",
                s.name(),
                hist.count
            );
            w!(
                "nalix_stage_duration_seconds_sum{{stage=\"{}\"}} {}",
                s.name(),
                hist.sum_ns as f64 / 1e9
            );
            w!(
                "nalix_stage_duration_seconds_count{{stage=\"{}\"}} {}",
                s.name(),
                hist.count
            );
        }
        for c in Counter::ALL {
            w!("# TYPE nalix_{}_total counter", c.name());
            w!("nalix_{}_total {}", c.name(), self.counter(c));
        }
        w!("# TYPE nalix_cache_hits_total counter");
        w!("nalix_cache_hits_total {}", self.cache_hits);
        w!("# TYPE nalix_cache_misses_total counter");
        w!("nalix_cache_misses_total {}", self.cache_misses);
        w!("# TYPE nalix_cache_entries gauge");
        w!("nalix_cache_entries {}", self.cache_entries);
        for g in MaxGauge::ALL {
            w!("# TYPE nalix_{} gauge", g.name());
            w!("nalix_{} {}", g.name(), self.max(g));
        }
        out
    }
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot::new()
    }
}

/// Format a nanosecond duration for the human-readable table.
fn fmt_dur(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

impl fmt::Display for MetricsSnapshot {
    /// The per-stage breakdown table the bench bins print. Latency
    /// quantiles are log-2 bucket upper bounds (see
    /// [`HistogramSnapshot::quantile_ns`]); the mean is exact.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queries: {} total", self.queries_total())?;
        for o in SpanOutcome::ALL {
            let n = self.queries_with(o);
            if n > 0 {
                write!(f, " · {} {}", o.name().replace('_', "-"), n)?;
            }
        }
        writeln!(f)?;
        writeln!(
            f,
            "{:<11} {:>7} {:>7} {:>5} {:>9} {:>9} {:>9} {:>9}",
            "stage", "spans", "ok", "err", "p50", "p90", "p99", "mean"
        )?;
        for s in Stage::ALL {
            let st = self.stage(s);
            // Endpoint rows only appear once a server has actually
            // served traffic; pipeline rows always print.
            if s.is_http() && st.spans() == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<11} {:>7} {:>7} {:>5} {:>9} {:>9} {:>9} {:>9}",
                s.name(),
                st.spans(),
                st.ok(),
                st.errors(),
                fmt_dur(st.latency.quantile_ns(0.50)),
                fmt_dur(st.latency.quantile_ns(0.90)),
                fmt_dur(st.latency.quantile_ns(0.99)),
                fmt_dur(st.latency.mean_ns()),
            )?;
        }
        let lookups = self.cache_hits + self.cache_misses;
        let rate = if lookups == 0 {
            0.0
        } else {
            100.0 * self.cache_hits as f64 / lookups as f64
        };
        writeln!(
            f,
            "translation cache: {} hits / {} misses / {} entries ({rate:.1}% hit rate)",
            self.cache_hits, self.cache_misses, self.cache_entries
        )?;
        let active: Vec<Counter> = Counter::ALL
            .into_iter()
            .filter(|&c| self.counter(c) > 0)
            .collect();
        if !active.is_empty() {
            writeln!(f, "counters:")?;
            for c in active {
                writeln!(f, "  {:<24} {:>12}", c.name(), self.counter(c))?;
            }
        }
        for g in MaxGauge::ALL {
            if self.max(g) > 0 {
                writeln!(f, "{}: {}", g.name().replace('_', " "), self.max(g))?;
            }
        }
        Ok(())
    }
}

/// True when `NALIX_OBS` asks for metrics to start disabled.
fn env_disabled() -> bool {
    match std::env::var("NALIX_OBS") {
        Ok(v) => matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "no"
        ),
        Err(_) => false,
    }
}

mod live;
pub use live::{count_hot, flush_hot, global, global_handle, MetricsRegistry, StageSpan};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every bucket's contents are below its exclusive upper bound.
        for ns in [0u64, 1, 5, 999, 1_000_000, 123_456_789_000] {
            assert!(ns < bucket_upper_ns(bucket_index(ns)));
        }
    }

    #[test]
    fn quantiles_are_monotone_bucket_bounds() {
        let mut h = HistogramSnapshot::new();
        h.count = 100;
        h.buckets[3] = 50; // [8, 16)
        h.buckets[7] = 40; // [128, 256)
        h.buckets[20] = 10; // [1<<20, 1<<21)
        assert_eq!(h.quantile_ns(0.0), 16);
        assert_eq!(h.quantile_ns(0.5), 16);
        assert_eq!(h.quantile_ns(0.9), 256);
        assert_eq!(h.quantile_ns(0.99), 1 << 21);
        assert_eq!(h.quantile_ns(1.0), 1 << 21);
        let empty = HistogramSnapshot::new();
        assert_eq!(empty.quantile_ns(0.5), 0);
        assert_eq!(empty.mean_ns(), 0);
    }

    #[test]
    fn snapshot_merge_and_delta_roundtrip() {
        let mut a = MetricsSnapshot::new();
        a.queries[SpanOutcome::Ok.index()] = 3;
        a.counters[Counter::LcaQueries.index()] = 10;
        a.maxes[MaxGauge::EvalDepthHighWater.index()] = 5;
        a.cache_hits = 2;
        let mut b = MetricsSnapshot::new();
        b.queries[SpanOutcome::Ok.index()] = 4;
        b.counters[Counter::LcaQueries.index()] = 1;
        b.maxes[MaxGauge::EvalDepthHighWater.index()] = 9;
        b.cache_misses = 7;

        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum.queries_with(SpanOutcome::Ok), 7);
        assert_eq!(sum.counter(Counter::LcaQueries), 11);
        assert_eq!(sum.max(MaxGauge::EvalDepthHighWater), 9);
        assert_eq!((sum.cache_hits, sum.cache_misses), (2, 7));

        let d = sum.delta(&a);
        assert_eq!(d.queries_with(SpanOutcome::Ok), 4);
        assert_eq!(d.counter(Counter::LcaQueries), 1);
        assert_eq!((d.cache_hits, d.cache_misses), (0, 7));
        // High-water marks keep the later value rather than subtract.
        assert_eq!(d.max(MaxGauge::EvalDepthHighWater), 9);
    }

    #[test]
    fn display_and_prometheus_render() {
        let mut s = MetricsSnapshot::new();
        s.queries[SpanOutcome::Ok.index()] = 2;
        s.queries[SpanOutcome::CacheHit.index()] = 1;
        s.stages[Stage::Parse.index()].outcomes[SpanOutcome::Ok.index()] = 2;
        s.stages[Stage::Parse.index()].latency.count = 2;
        s.stages[Stage::Parse.index()].latency.sum_ns = 3_000;
        s.stages[Stage::Parse.index()].latency.buckets[10] = 2;
        s.counters[Counter::Tokens.index()] = 17;
        s.cache_hits = 1;
        s.cache_misses = 2;
        s.cache_entries = 2;
        let table = s.to_string();
        assert!(table.contains("queries: 3 total · ok 2 · cache-hit 1"));
        assert!(table.contains("parse"));
        assert!(table.contains("tokens"));
        assert!(table.contains("33.3% hit rate"));
        let prom = s.to_prometheus();
        assert!(prom.contains("nalix_queries_total{outcome=\"cache_hit\"} 1"));
        assert!(prom.contains("nalix_tokens_total 17"));
        assert!(prom.contains("nalix_stage_duration_seconds_count{stage=\"parse\"} 2"));
        // Bucket lines are cumulative and end at the total count.
        assert!(prom.contains("nalix_stage_duration_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 2"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(999), "999ns");
        assert_eq!(fmt_dur(1_500), "1.5µs");
        assert_eq!(fmt_dur(2_500_000), "2.5ms");
        assert_eq!(fmt_dur(3_210_000_000), "3.21s");
    }
}
