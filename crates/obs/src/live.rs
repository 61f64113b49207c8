//! The recording implementation.
//!
//! Everything here is wait-free on the write path: relaxed atomic
//! increments into fixed-size arrays, a cache-line-sharded counter for
//! the highest-frequency events, and a single packed atomic for the
//! translation-cache hit/miss pair so the two can never be observed
//! torn.

use crate::{
    bucket_index, env_disabled, Counter, MaxGauge, MetricsSnapshot, SpanOutcome, Stage,
    HISTOGRAM_BUCKETS,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Shards per [`ShardedCounter`]; must be a power of two. Eight shards
/// give each thread of a small worker pool (the server's workers, a
/// query's FLWOR shards) its own shard in the common case.
const COUNTER_SHARDS: usize = 8;

/// A cache-line-padded atomic, so neighbouring shards never false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A counter split across cache-line-padded shards: each thread
/// increments its own shard (assigned round-robin on first use), reads
/// sum all shards. Writes stay wait-free and contention-free even when
/// every worker bumps the same counter per LCA query.
struct ShardedCounter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard index (assigned on first use; falls back
/// to shard 0 if thread-local storage is already torn down).
fn my_shard() -> usize {
    MY_SHARD
        .try_with(|c| {
            let v = c.get();
            if v != usize::MAX {
                v
            } else {
                let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (COUNTER_SHARDS - 1);
                c.set(v);
                v
            }
        })
        .unwrap_or(0)
}

impl ShardedCounter {
    fn new() -> Self {
        ShardedCounter {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    fn add(&self, n: u64) {
        self.shards[my_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }
}

/// A fixed-bucket latency histogram (see [`HISTOGRAM_BUCKETS`]).
struct AtomicHistogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> crate::HistogramSnapshot {
        crate::HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Outcome counters plus the latency histogram of one stage.
struct StageMetrics {
    outcomes: [AtomicU64; SpanOutcome::COUNT],
    latency: AtomicHistogram,
}

impl StageMetrics {
    fn new() -> Self {
        StageMetrics {
            outcomes: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: AtomicHistogram::new(),
        }
    }

    fn snapshot(&self) -> crate::StageSnapshot {
        crate::StageSnapshot {
            outcomes: std::array::from_fn(|i| self.outcomes[i].load(Ordering::Relaxed)),
            latency: self.latency.snapshot(),
        }
    }
}

/// The lock-free metrics store every instrumented component records
/// into.
///
/// A registry is cheap to create and fully thread-safe; `nalix::Nalix`
/// and `xquery::Engine` each own one (an isolated default, or a shared
/// handle passed to their `with_metrics` constructors), while
/// process-global instrumentation deep in `xmldb` and `nlparser`
/// records into [`global()`]. Reading is always allowed; whether
/// *recording* happens is controlled by the `enabled` flag (seeded from
/// the `NALIX_OBS` environment variable, adjustable at runtime).
///
/// ```
/// use obs::{MetricsRegistry, SpanOutcome, Stage};
/// let reg = MetricsRegistry::new();
/// reg.set_enabled(false);
/// reg.span(Stage::Parse).finish(SpanOutcome::Ok); // recorded nowhere
/// assert_eq!(reg.snapshot().stage(Stage::Parse).spans(), 0);
/// reg.set_enabled(true);
/// reg.span(Stage::Parse).finish(SpanOutcome::Ok);
/// assert_eq!(reg.snapshot().stage(Stage::Parse).spans(), 1);
/// ```
pub struct MetricsRegistry {
    enabled: AtomicBool,
    stages: [StageMetrics; Stage::COUNT],
    queries: [AtomicU64; SpanOutcome::COUNT],
    counters: [ShardedCounter; Counter::COUNT],
    maxes: [AtomicU64; MaxGauge::COUNT],
    /// Translation-cache hits and misses packed as
    /// `(hits << 32) | misses`, each half saturating at `u32::MAX`, so
    /// one load yields a pair that is always mutually consistent.
    cache: AtomicU64,
}

impl MetricsRegistry {
    /// A fresh, empty registry. Starts enabled unless the `NALIX_OBS`
    /// environment variable says `off` / `0` / `false` / `no`.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: AtomicBool::new(!env_disabled()),
            stages: std::array::from_fn(|_| StageMetrics::new()),
            queries: std::array::from_fn(|_| AtomicU64::new(0)),
            counters: std::array::from_fn(|_| ShardedCounter::new()),
            maxes: std::array::from_fn(|_| AtomicU64::new(0)),
            cache: AtomicU64::new(0),
        }
    }

    /// Whether recording calls currently take effect.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off at runtime. Already-recorded values are
    /// kept either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Start timing one run of `stage`. The returned guard files the
    /// elapsed wall time and an outcome when finished (or dropped, in
    /// which case the last outcome set — default [`SpanOutcome::Ok`] —
    /// is used). On a disabled registry the guard is inert and does not
    /// read the clock.
    ///
    /// ```
    /// use obs::{MetricsRegistry, SpanOutcome, Stage};
    /// let reg = MetricsRegistry::new();
    /// let mut span = reg.span(Stage::Translate);
    /// span.set_outcome(SpanOutcome::TranslateError);
    /// drop(span); // records with the outcome set above
    /// assert_eq!(reg.snapshot().stage(Stage::Translate).errors(), 1);
    /// ```
    pub fn span(&self, stage: Stage) -> StageSpan<'_> {
        StageSpan {
            live: self.is_enabled().then(|| (self, stage, Instant::now())),
            outcome: SpanOutcome::Ok,
        }
    }

    fn record_span(&self, stage: Stage, outcome: SpanOutcome, elapsed: Duration) {
        let st = &self.stages[stage.index()];
        st.outcomes[outcome.index()].fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        st.latency.record(ns);
    }

    /// File the outcome of one end-to-end query submission (including
    /// [`SpanOutcome::CacheHit`] short-circuits, which produce no stage
    /// spans).
    pub fn record_query(&self, outcome: SpanOutcome) {
        if self.is_enabled() {
            self.queries[outcome.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Add `n` to a work counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if self.is_enabled() && n > 0 {
            self.counters[counter.index()].add(n);
        }
    }

    /// Raise a high-water-mark gauge to `value` if it is higher than
    /// anything recorded so far.
    pub fn record_max(&self, gauge: MaxGauge, value: u64) {
        if self.is_enabled() {
            self.maxes[gauge.index()].fetch_max(value, Ordering::Relaxed);
        }
    }

    fn bump_cache(&self, hit: bool) {
        if !self.is_enabled() {
            return;
        }
        // Both halves live in one atomic: a CAS loop keeps each half
        // saturating instead of bleeding into its neighbour. The
        // closure always returns `Some`, so `fetch_update` cannot fail.
        let _ = self
            .cache
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                let (h, m) = (v >> 32, v & u64::from(u32::MAX));
                let bump = |x: u64| (x + 1).min(u64::from(u32::MAX));
                let (h, m) = if hit { (bump(h), m) } else { (h, bump(m)) };
                Some((h << 32) | m)
            });
    }

    /// Record one translation-cache hit.
    pub fn cache_hit(&self) {
        self.bump_cache(true);
    }

    /// Record one translation-cache miss.
    pub fn cache_miss(&self) {
        self.bump_cache(false);
    }

    /// A consistent `(hits, misses)` pair, read from one atomic load —
    /// the two values always describe the same instant.
    ///
    /// ```
    /// use obs::MetricsRegistry;
    /// let reg = MetricsRegistry::new();
    /// reg.cache_miss();
    /// reg.cache_hit();
    /// assert_eq!(reg.cache_counts(), (1, 1));
    /// ```
    pub fn cache_counts(&self) -> (u64, u64) {
        let v = self.cache.load(Ordering::Relaxed);
        (v >> 32, v & u64::from(u32::MAX))
    }

    /// Copy everything recorded so far into a plain-data
    /// [`MetricsSnapshot`]. Wait-free; individual values are read
    /// relaxed, so a snapshot taken while writers are active is a
    /// near-instant, not perfectly transactional, picture (except the
    /// cache pair, which is atomic by construction).
    ///
    /// Snapshotting the [`global()`] registry first drains the calling
    /// thread's [`count_hot`] cells, so single-threaded report paths
    /// always see their own hot counts.
    pub fn snapshot(&self) -> MetricsSnapshot {
        if let Some(g) = GLOBAL.get() {
            if std::ptr::eq(Arc::as_ptr(g), self) {
                flush_hot();
            }
        }
        let (cache_hits, cache_misses) = self.cache_counts();
        MetricsSnapshot {
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
            queries: std::array::from_fn(|i| self.queries[i].load(Ordering::Relaxed)),
            counters: std::array::from_fn(|i| self.counters[i].value()),
            maxes: std::array::from_fn(|i| self.maxes[i].load(Ordering::Relaxed)),
            cache_hits,
            cache_misses,
            cache_entries: 0,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// RAII guard timing one stage run; created by [`MetricsRegistry::span`].
///
/// Call [`finish`](StageSpan::finish) with the stage's outcome on every
/// exit path, or [`set_outcome`](StageSpan::set_outcome) and let the
/// guard record on drop — early returns via `?` then still file the
/// span.
///
/// ```
/// use obs::{MetricsRegistry, SpanOutcome, Stage};
/// let reg = MetricsRegistry::new();
/// reg.span(Stage::Classify).finish(SpanOutcome::Ok);
/// let snap = reg.snapshot();
/// assert_eq!(snap.stage(Stage::Classify).ok(), 1);
/// assert_eq!(snap.stage(Stage::Classify).latency.count, 1);
/// ```
pub struct StageSpan<'r> {
    /// `None` when the registry was disabled at span creation.
    live: Option<(&'r MetricsRegistry, Stage, Instant)>,
    outcome: SpanOutcome,
}

impl StageSpan<'_> {
    /// Set the outcome the span will record when it ends.
    pub fn set_outcome(&mut self, outcome: SpanOutcome) {
        self.outcome = outcome;
    }

    /// End the span now, recording `outcome` and the elapsed wall time.
    pub fn finish(mut self, outcome: SpanOutcome) {
        self.outcome = outcome;
        // Recording happens in `Drop`, which runs here.
    }
}

impl Drop for StageSpan<'_> {
    fn drop(&mut self) {
        if let Some((reg, stage, started)) = self.live.take() {
            reg.record_span(stage, self.outcome, started.elapsed());
        }
    }
}

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

fn global_arc() -> &'static Arc<MetricsRegistry> {
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

/// The process-global registry.
///
/// Deep instrumentation that has no natural owner — `xmldb` LCA
/// queries, `nlparser` tokenizer counters — records here; bench bins
/// opt their `Nalix` instances into it via
/// `Nalix::with_metrics(&doc, obs::global_handle())` so one snapshot
/// shows the whole picture.
///
/// ```
/// use obs::{global, Counter};
/// let before = global().snapshot().counter(Counter::LcaQueries);
/// global().add(Counter::LcaQueries, 2);
/// let after = global().snapshot().counter(Counter::LcaQueries);
/// assert_eq!(after - before, 2);
/// ```
pub fn global() -> &'static MetricsRegistry {
    global_arc()
}

/// A clonable handle to the [`global()`] registry, for APIs that take
/// `Arc<MetricsRegistry>` (e.g. `Nalix::with_metrics`).
///
/// ```
/// use obs::{global, global_handle};
/// let handle = obs::global_handle();
/// assert!(std::ptr::eq(&*handle, global()));
/// ```
pub fn global_handle() -> Arc<MetricsRegistry> {
    global_arc().clone()
}

/// Flush threshold for [`count_hot`] cells: high enough that the flush
/// branch is almost never taken, low enough that an unflushed tail is
/// invisible against the call volumes these counters see.
const HOT_FLUSH: u64 = 1 << 12;

thread_local! {
    // Per-thread accumulation cells for `count_hot`. Deliberately
    // destructor-free and const-initialized: on ELF targets that
    // compiles every access down to a direct TLS slot read, which is
    // what keeps the per-probe cost near a plain increment.
    static HOT: [Cell<u64>; Counter::COUNT] = const { [const { Cell::new(0) }; Counter::COUNT] };
}

/// Count work on the [`global()`] registry from a hot path.
///
/// Increments accumulate in a plain per-thread cell — no atomics, no
/// clock — and drain into the global registry every 4096th
/// unit and whenever the calling thread calls [`flush_hot`] or
/// snapshots the global registry. This is what lets `xmldb` count
/// tens of millions of O(1) structural probes per batch without
/// slowing them down.
///
/// Two deliberate imprecisions, both bounded by one cell
/// (4096 units per counter per thread, invisible at the call
/// volumes this API is for):
///
/// - a thread that exits without calling [`flush_hot`] drops its tail
///   (the server's workers flush after every request);
/// - the enabled check happens at *flush* time (via
///   [`MetricsRegistry::add`]), so a registry disabled mid-batch may
///   drop or keep up to one cell's worth.
///
/// ```
/// use obs::{count_hot, flush_hot, global, Counter};
/// let before = global().snapshot().counter(Counter::SubtreeProbes);
/// count_hot(Counter::SubtreeProbes, 3);
/// flush_hot(); // snapshot() on the global registry also flushes
/// let after = global().snapshot().counter(Counter::SubtreeProbes);
/// assert_eq!(after - before, 3);
/// ```
pub fn count_hot(counter: Counter, n: u64) {
    // try_with: counting during thread teardown is silently dropped.
    let _ = HOT.try_with(|cells| {
        let c = &cells[counter.index()];
        let v = c.get().wrapping_add(n);
        if v >= HOT_FLUSH {
            c.set(0);
            global().add(counter, v);
        } else {
            c.set(v);
        }
    });
}

/// Drain the calling thread's [`count_hot`] cells into the [`global()`]
/// registry immediately. Called automatically when the calling thread
/// snapshots the global registry; worker threads that record hot
/// counts should call it before exiting (the server's workers call it
/// after every request), since the cells are deliberately
/// destructor-free.
pub fn flush_hot() {
    let _ = HOT.try_with(|cells| {
        let reg = global();
        for (i, c) in cells.iter().enumerate() {
            let v = c.get();
            if v > 0 {
                c.set(0);
                reg.add(Counter::ALL[i], v);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_counter_sums_across_threads() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        reg.add(Counter::LcaQueries, 1);
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter(Counter::LcaQueries), 8_000);
    }

    #[test]
    fn span_drop_records_with_last_outcome() {
        let reg = MetricsRegistry::new();
        {
            let mut span = reg.span(Stage::Validate);
            span.set_outcome(SpanOutcome::ValidateError);
            // Dropped without `finish` — e.g. a `?` early return.
        }
        let s = reg.snapshot();
        assert_eq!(
            s.stage(Stage::Validate)
                .with_outcome(SpanOutcome::ValidateError),
            1
        );
        assert_eq!(s.stage(Stage::Validate).latency.count, 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(false);
        reg.span(Stage::Parse).finish(SpanOutcome::Ok);
        reg.record_query(SpanOutcome::Ok);
        reg.add(Counter::Tokens, 5);
        reg.record_max(MaxGauge::EvalDepthHighWater, 9);
        reg.cache_hit();
        reg.cache_miss();
        assert_eq!(reg.snapshot(), MetricsSnapshot::new());
    }

    #[test]
    fn cache_pair_is_consistent_under_concurrency() {
        let reg = MetricsRegistry::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                // Sampled pairs must be monotone in both halves — a
                // torn read of a two-atomic pair could go backwards.
                let (mut h0, mut m0) = (0, 0);
                while !stop.load(Ordering::Relaxed) {
                    let (h, m) = reg.cache_counts();
                    assert!(h >= h0 && m >= m0, "({h},{m}) after ({h0},{m0})");
                    (h0, m0) = (h, m);
                }
            });
            let writers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        for i in 0..5_000 {
                            if i % 3 == 0 {
                                reg.cache_hit();
                            } else {
                                reg.cache_miss();
                            }
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            sampler.join().unwrap();
        });
        let (h, m) = reg.cache_counts();
        assert_eq!(h + m, 20_000);
        assert_eq!(h, 4 * 1_667); // ceil(5000/3) per thread
    }

    #[test]
    fn eval_budget_gauge_keeps_high_water() {
        let reg = MetricsRegistry::new();
        for v in [3, 12, 7] {
            reg.record_max(MaxGauge::EvalDepthHighWater, v);
        }
        assert_eq!(reg.snapshot().max(MaxGauge::EvalDepthHighWater), 12);
    }
}
