//! The FLWOR evaluator.
//!
//! Evaluation is tuple-at-a-time, the classic nested-loops
//! interpretation of FLWOR: `for` clauses extend a stream of variable
//! environments, `let` binds whole sequences, `where` filters,
//! `order by` sorts the surviving tuples, and `return` concatenates the
//! per-tuple results. This is exactly how the paper's translated queries
//! (Fig. 9) are meant to be read, and it keeps `mqf()` a simple
//! per-tuple predicate.

use crate::ast::{Binding, CmpOp, Expr, OrderDir, PathRoot, Quantifier, Step, StepAxis};
use crate::mlca::set_meaningfully_related;
use crate::parser::{parse, ParseError};
use crate::value::{
    aggregate, effective_boolean, general_compare, ConstructedElem, Item, Sequence, SortKey,
};
use std::cell::Cell;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::time::{Duration, Instant};
use xmldb::{Document, NodeId, NodeKind};

/// Flatten nested conjunctions into a conjunct list.
fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::And(parts) = e {
        for p in parts {
            flatten_and(p, out);
        }
    } else {
        out.push(e);
    }
}

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Reference to a variable with no binding in scope.
    UnboundVariable(String),
    /// An operation received an item of the wrong type.
    TypeError(String),
    /// Call to a function the engine does not know.
    UnknownFunction(String),
    /// Built-in called with the wrong number of arguments.
    WrongArity {
        /// The function.
        name: String,
        /// Expected argument count.
        expected: usize,
        /// Actual argument count.
        got: usize,
    },
    /// The query text failed to parse.
    Parse(ParseError),
    /// A resource guard tripped: the query was abandoned rather than
    /// allowed to hang, overflow the stack, or materialize an unbounded
    /// result (see [`EvalBudget`]).
    ResourceExhausted {
        /// Which limit was hit.
        resource: ExhaustedResource,
        /// The configured limit, rendered for the message.
        limit: String,
    },
}

/// The kind of limit an [`EvalError::ResourceExhausted`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustedResource {
    /// Expression recursion depth.
    Depth,
    /// Wall-clock deadline.
    Time,
    /// FLWOR tuple / candidate cardinality.
    Tuples,
}

impl fmt::Display for ExhaustedResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExhaustedResource::Depth => "recursion depth",
            ExhaustedResource::Time => "time",
            ExhaustedResource::Tuples => "result size",
        })
    }
}

/// Resource limits for one evaluation.
///
/// The guards exist so a pathological translation degrades to a
/// structured [`EvalError::ResourceExhausted`] instead of a hang or a
/// stack overflow: `max_depth` bounds expression recursion, `time_limit`
/// is a wall-clock deadline, and `max_tuples` caps how many FLWOR
/// candidate tuples the nested-loops evaluator may materialize. All
/// three are checked at FLWOR iteration boundaries (and `max_depth` on
/// every recursive descent), so the overshoot past a tripped limit is at
/// most one binding step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalBudget {
    /// Maximum expression recursion depth.
    pub max_depth: usize,
    /// Optional wall-clock deadline, measured from evaluation start.
    pub time_limit: Option<Duration>,
    /// Maximum number of FLWOR candidate tuples materialized. The cap is
    /// global across shards: every shard charges the same atomic ledger.
    pub max_tuples: usize,
    /// Worker shards for large FLWOR loops *within* one query: `1`
    /// evaluates serially, `n > 1` splits big binding-expansion and
    /// return loops into `n` contiguous chunks evaluated on scoped
    /// worker threads, and `0` (the default) picks the machine's
    /// available parallelism for large loops. Results are stitched back
    /// in chunk order, so output is byte-identical to serial evaluation.
    pub shards: usize,
}

impl Default for EvalBudget {
    /// Generous defaults: far above anything the NaLIX translator emits
    /// (its queries nest a handful of levels and the corpora hold tens
    /// of thousands of nodes), but low enough that a runaway cartesian
    /// product dies in milliseconds rather than minutes.
    fn default() -> Self {
        EvalBudget {
            max_depth: 128,
            time_limit: None,
            max_tuples: 4_000_000,
            shards: 0,
        }
    }
}

impl EvalBudget {
    /// Builder-style recursion-depth override.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Builder-style wall-clock deadline override.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Builder-style tuple-cardinality override.
    pub fn with_max_tuples(mut self, tuples: usize) -> Self {
        self.max_tuples = tuples;
        self
    }

    /// Builder-style shard-count override (see [`EvalBudget::shards`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// Hard ceiling on worker shards per FLWOR loop, whatever the budget
/// asks for.
const MAX_SHARDS: usize = 64;

/// Minimum loop length before `shards: 0` (auto) engages worker
/// threads; explicit shard counts apply from 2 items up, so tests can
/// force the parallel path on small documents.
const AUTO_SHARD_MIN_ITEMS: usize = 4096;

/// Resolve how many shards a loop over `n` items should use.
fn plan_shards(budget: &EvalBudget, n: usize) -> usize {
    let want = match budget.shards {
        0 => {
            if n >= AUTO_SHARD_MIN_ITEMS {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            } else {
                1
            }
        }
        s => s,
    };
    want.min(n).clamp(1, MAX_SHARDS)
}

/// The tuple ledger one evaluation's shards share: a single atomic
/// counter every shard charges, so `max_tuples` is a *global* cap — a
/// query sharded eight ways trips the same limit at the same total
/// cardinality as a serial run (give or take the in-flight charges of
/// the other shards, bounded by one binding step each).
struct Ledger {
    tuples: std::sync::atomic::AtomicUsize,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            tuples: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn total(&self) -> usize {
        self.tuples.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Per-evaluation guard state: the budget, the resolved deadline, the
/// shared tuple [`Ledger`], and thread-local statistics cells. One
/// guard lives on the stack of `eval_with_budget`; each worker shard
/// builds its own from a [`GuardSeed`] (the `Sync` parts), keeping the
/// `Cell`s strictly thread-local while the tuple cap stays global.
struct Guard<'b> {
    budget: &'b EvalBudget,
    deadline: Option<Instant>,
    ledger: &'b Ledger,
    /// Deepest recursion seen — flushed to the metrics registry as
    /// [`obs::MaxGauge::EvalDepthHighWater`] once per evaluation.
    max_depth: Cell<usize>,
    /// `mqf()` checks performed — accumulated here (a plain stack cell,
    /// no atomics) because checks run per candidate tuple; flushed as
    /// [`obs::Counter::MqfChecks`] once per evaluation.
    mqf_checks: Cell<u64>,
    /// Indexed partner enumerations, flushed as
    /// [`obs::Counter::MqfPartnerLookups`] once per evaluation.
    mqf_partner_lookups: Cell<u64>,
    /// `let` tuples answered from a FLWOR's memo instead of evaluating
    /// the body, flushed as [`obs::Counter::MemoHits`].
    memo_hits: Cell<u64>,
}

/// The `Send + Sync` parts of a [`Guard`], handed to worker shards so
/// each can build a thread-local guard against the shared ledger.
#[derive(Clone, Copy)]
struct GuardSeed<'b> {
    budget: &'b EvalBudget,
    deadline: Option<Instant>,
    ledger: &'b Ledger,
}

impl<'b> GuardSeed<'b> {
    fn guard(self) -> Guard<'b> {
        Guard {
            budget: self.budget,
            deadline: self.deadline,
            ledger: self.ledger,
            max_depth: Cell::new(0),
            mqf_checks: Cell::new(0),
            mqf_partner_lookups: Cell::new(0),
            memo_hits: Cell::new(0),
        }
    }
}

/// A shard guard's statistics, merged into the parent guard after the
/// shard joins.
struct ShardStats {
    max_depth: usize,
    mqf_checks: u64,
    mqf_partner_lookups: u64,
    memo_hits: u64,
}

impl<'b> Guard<'b> {
    fn new(budget: &'b EvalBudget, ledger: &'b Ledger) -> Self {
        GuardSeed {
            budget,
            deadline: budget
                .time_limit
                .and_then(|d| Instant::now().checked_add(d)),
            ledger,
        }
        .guard()
    }

    /// The shareable parts, for spawning worker shards.
    fn seed(&self) -> GuardSeed<'b> {
        GuardSeed {
            budget: self.budget,
            deadline: self.deadline,
            ledger: self.ledger,
        }
    }

    /// This guard's local statistics (a shard reports them at join).
    fn stats(&self) -> ShardStats {
        ShardStats {
            max_depth: self.max_depth.get(),
            mqf_checks: self.mqf_checks.get(),
            mqf_partner_lookups: self.mqf_partner_lookups.get(),
            memo_hits: self.memo_hits.get(),
        }
    }

    /// Merge a joined shard's statistics into this guard.
    fn absorb(&self, s: &ShardStats) {
        self.max_depth.set(self.max_depth.get().max(s.max_depth));
        self.mqf_checks.set(self.mqf_checks.get() + s.mqf_checks);
        self.mqf_partner_lookups
            .set(self.mqf_partner_lookups.get() + s.mqf_partner_lookups);
        self.memo_hits.set(self.memo_hits.get() + s.memo_hits);
    }

    /// Depth check at every recursive descent into `eval_inner`.
    fn check_depth(&self, depth: usize) -> Result<(), EvalError> {
        if depth > self.max_depth.get() {
            self.max_depth.set(depth);
        }
        if depth > self.budget.max_depth {
            return Err(EvalError::ResourceExhausted {
                resource: ExhaustedResource::Depth,
                limit: format!("{} levels", self.budget.max_depth),
            });
        }
        Ok(())
    }

    /// Charge `n` candidate tuples against the shared ledger and
    /// re-check the deadline. Called at FLWOR iteration boundaries,
    /// where all the multiplicative work happens.
    fn charge_tuples(&self, n: usize) -> Result<(), EvalError> {
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(EvalError::ResourceExhausted {
                    resource: ExhaustedResource::Time,
                    limit: format!("{:?}", self.budget.time_limit.unwrap_or_default()),
                });
            }
        }
        let prev = self
            .ledger
            .tuples
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        if prev.saturating_add(n) > self.budget.max_tuples {
            return Err(EvalError::ResourceExhausted {
                resource: ExhaustedResource::Tuples,
                limit: format!("{} tuples", self.budget.max_tuples),
            });
        }
        Ok(())
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            EvalError::TypeError(m) => write!(f, "type error: {m}"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function {n}()"),
            EvalError::WrongArity {
                name,
                expected,
                got,
            } => write!(f, "{name}() expects {expected} argument(s), got {got}"),
            EvalError::Parse(e) => write!(f, "{e}"),
            EvalError::ResourceExhausted { resource, limit } => {
                write!(f, "evaluation exceeded the {resource} limit ({limit})")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ParseError> for EvalError {
    fn from(e: ParseError) -> Self {
        EvalError::Parse(e)
    }
}

/// A variable environment (one FLWOR tuple).
///
/// Represented as a persistent linked list: [`Env::bind`] is O(1) and
/// shares structure with the parent, which matters because the FLWOR
/// evaluator creates one environment per candidate tuple. Lookup walks
/// the (short — one entry per in-scope variable) chain, newest first,
/// so inner bindings shadow outer ones. The spine is `Arc`-linked so
/// environments can cross threads (a sharded FLWOR loop hands them to
/// its worker shards).
#[derive(Debug, Clone, Default)]
pub struct Env {
    head: Option<std::sync::Arc<EnvNode>>,
}

#[derive(Debug)]
struct EnvNode {
    var: String,
    seq: Sequence,
    next: Option<std::sync::Arc<EnvNode>>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `var` to `seq`, returning the extended environment.
    pub fn bind(&self, var: &str, seq: Sequence) -> Env {
        Env {
            head: Some(std::sync::Arc::new(EnvNode {
                var: var.to_owned(),
                seq,
                next: self.head.clone(),
            })),
        }
    }

    /// Look up a binding.
    pub fn get(&self, var: &str) -> Option<&Sequence> {
        let mut cur = self.head.as_deref();
        while let Some(n) = cur {
            if n.var == var {
                return Some(&n.seq);
            }
            cur = n.next.as_deref();
        }
        None
    }

    /// Is `var` bound?
    pub fn contains(&self, var: &str) -> bool {
        self.get(var).is_some()
    }
}

/// The query engine, tied to one document (the paper's NaLIX "currently
/// only supports queries over a single document").
///
/// The engine is `Send + Sync`: evaluation itself only reads the
/// document, and the lazily built value index lives behind a sharded
/// `RwLock` cache, so one engine can serve many threads concurrently
/// (the server's workers share one per document).
///
/// The engine *shares ownership* of its document (`Arc<Document>`)
/// rather than borrowing it, so an engine is always `'static`: it can
/// be handed to plainly spawned threads, stored in registries, and
/// hot-swapped at runtime (see the `store` crate) without scoped-thread
/// gymnastics. Constructors accept anything convertible into an
/// `Arc<Document>` — an owned [`Document`] or an existing `Arc`.
pub struct Engine {
    doc: std::sync::Arc<Document>,
    /// Lazily built per-label value index (`label → value → nodes`),
    /// backing the equality-join fast path: a `for $v in doc()//L` whose
    /// `where` contains `$v = $bound` draws its candidates from here
    /// instead of scanning every `L` node. Keys are canonicalised the
    /// same way general comparison atomises (numbers normalised, other
    /// strings verbatim), so the index is exactly as selective as the
    /// `=` it accelerates.
    value_index: ValueIndexCache,
    /// Where evaluation spans, tuple counts, and index telemetry are
    /// recorded. Isolated per engine by default; share one with
    /// [`Engine::with_metrics`].
    metrics: std::sync::Arc<obs::MetricsRegistry>,
}

type ValueIndex = std::collections::HashMap<String, Vec<NodeId>>;

/// Number of lock shards in [`ValueIndexCache`]. Shard choice only
/// spreads lock contention, not data: each label's index lives wholly
/// in the shard its symbol hashes to.
const VALUE_INDEX_SHARDS: usize = 16;

/// Concurrent lazily-populated map `Symbol → Arc<ValueIndex>`.
///
/// Reads take a shard's read lock for a clone of the `Arc` only; index
/// construction happens outside any lock, so a slow build of one
/// label's index never blocks queries touching other labels (or even
/// other lookups of the same shard). If two threads race to build the
/// same label's index the first insert wins and the duplicate is
/// dropped — both are built from the same immutable document, so the
/// contents are identical.
struct ValueIndexCache {
    shards: [std::sync::RwLock<
        std::collections::HashMap<xmldb::Symbol, std::sync::Arc<ValueIndex>>,
    >; VALUE_INDEX_SHARDS],
}

impl Default for ValueIndexCache {
    fn default() -> Self {
        ValueIndexCache {
            shards: std::array::from_fn(|_| Default::default()),
        }
    }
}

impl ValueIndexCache {
    fn get_or_build(
        &self,
        sym: xmldb::Symbol,
        build: impl FnOnce() -> ValueIndex,
    ) -> std::sync::Arc<ValueIndex> {
        // A poisoned shard is recovered, not propagated: the map only
        // ever holds fully-built immutable indexes, so a panicking
        // writer cannot leave a half-written entry behind.
        let shard = &self.shards[sym.index() % VALUE_INDEX_SHARDS];
        if let Some(ix) = shard
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&sym)
        {
            return ix.clone();
        }
        let built = std::sync::Arc::new(build());
        shard
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(sym)
            .or_insert(built)
            .clone()
    }
}

/// Canonical key for equality-index lookups: matches the equality
/// semantics of [`crate::value::compare_items`] (numeric values compare
/// numerically, others as exact strings).
fn canon_value(v: &str) -> String {
    match crate::value::parse_finite(v) {
        Some(n) => crate::value::format_number(n),
        None => v.to_owned(),
    }
}

/// The outer variables a `let` body depends on, when it depends on them
/// only as direct operands of value comparisons — the paper's Fig. 6
/// grouping shape, `$v4 = $v1` against a fresh copy of the core token.
/// Such a body's value is a function of the kinds and atomized strings
/// of those variables' items (that is all [`crate::value::compare_items`]
/// reads), so a FLWOR may evaluate it once per distinct key
/// ([`memo_key`]).
/// `None` when an outer variable is used any other way: in a path
/// (`$v1/author`), as an `mqf()` or function argument, under an
/// aggregate (`count($v1)`), or as a result. `Some(vec![])` means the
/// body references no outer variable at all.
fn value_keyed_vars(body: &Expr) -> Option<Vec<&str>> {
    let mut keyed = Vec::new();
    if !only_compared(body, &mut Vec::new(), &mut keyed) {
        return None;
    }
    keyed.sort_unstable();
    keyed.dedup();
    Some(keyed)
}

/// Walk `e` with `scope` holding the variables bound inside the body so
/// far (a FLWOR binding scopes over the bindings after it, as written;
/// the planner never evaluates a binding before one it references).
/// Outer variables met as direct comparison operands go to `keyed`;
/// any other outer reference returns false.
fn only_compared<'e>(e: &'e Expr, scope: &mut Vec<&'e str>, keyed: &mut Vec<&'e str>) -> bool {
    match e {
        Expr::Str(_) | Expr::Num(_) => true,
        Expr::Path { root, .. } => match root {
            PathRoot::Var(v) => scope.contains(&v.as_str()),
            PathRoot::Doc(_) => true,
        },
        Expr::Cmp { lhs, rhs, .. } => [lhs, rhs].into_iter().all(|x| match x.as_ref() {
            Expr::Path {
                root: PathRoot::Var(v),
                steps,
            } if steps.is_empty() && !scope.contains(&v.as_str()) => {
                keyed.push(v);
                true
            }
            x => only_compared(x, scope, keyed),
        }),
        Expr::And(xs) | Expr::Or(xs) | Expr::Seq(xs) | Expr::Mqf(xs) => {
            xs.iter().all(|x| only_compared(x, scope, keyed))
        }
        Expr::Element { content: xs, .. } | Expr::Call { args: xs, .. } => {
            xs.iter().all(|x| only_compared(x, scope, keyed))
        }
        Expr::Not(x) | Expr::Agg { arg: x, .. } => only_compared(x, scope, keyed),
        Expr::Quantified {
            var,
            source,
            satisfies,
            ..
        } => {
            if !only_compared(source, scope, keyed) {
                return false;
            }
            scope.push(var);
            let ok = only_compared(satisfies, scope, keyed);
            scope.pop();
            ok
        }
        Expr::Flwor {
            bindings,
            where_clause,
            order_by,
            ret,
        } => {
            let mark = scope.len();
            let mut ok = true;
            for b in bindings {
                let source = match b {
                    Binding::For { source, .. } => source,
                    Binding::Let { value, .. } => value,
                };
                ok = ok && only_compared(source, scope, keyed);
                scope.push(b.var());
            }
            ok = ok
                && where_clause
                    .as_deref()
                    .is_none_or(|w| only_compared(w, scope, keyed))
                && order_by
                    .iter()
                    .all(|k| only_compared(&k.expr, scope, keyed))
                && only_compared(ret, scope, keyed);
            scope.truncate(mark);
            ok
        }
    }
}

/// The memo key of one tuple: for each keyed variable, the kind and the
/// exact atomized string of every item it holds. Exact strings, not
/// [`canon_value`]: `"1990"` and `"1990.0"` are equal as numbers but
/// differ against `"1990-"` under `<`. `None` when a variable is
/// unbound, so evaluation reports it.
fn memo_key(doc: &Document, vars: &[&str], env: &Env) -> Option<MemoKey> {
    vars.iter()
        .map(|v| {
            env.get(v).map(|seq| {
                seq.iter()
                    .map(|item| (std::mem::discriminant(item), item.string_value(doc)))
                    .collect()
            })
        })
        .collect()
}

type MemoKey = Vec<Vec<(std::mem::Discriminant<Item>, String)>>;

impl Engine {
    /// Create an engine over `doc` (which must be finalized), with its
    /// own isolated [`obs::MetricsRegistry`]. Accepts an owned
    /// [`Document`] or an `Arc<Document>`.
    pub fn new(doc: impl Into<std::sync::Arc<Document>>) -> Self {
        Engine::with_metrics(doc, std::sync::Arc::new(obs::MetricsRegistry::new()))
    }

    /// Create an engine recording into a caller-supplied registry —
    /// typically [`obs::global_handle()`] so evaluator spans land next
    /// to the process-global `xmldb`/`nlparser` counters.
    pub fn with_metrics(
        doc: impl Into<std::sync::Arc<Document>>,
        metrics: std::sync::Arc<obs::MetricsRegistry>,
    ) -> Self {
        let doc = doc.into();
        assert!(doc.is_finalized(), "engine requires a finalized document");
        Engine {
            doc,
            value_index: Default::default(),
            metrics,
        }
    }

    /// Create an engine over `doc` that inherits the value indexes of
    /// `prior` for every label *not* named in `dirty` (which must be
    /// sorted). This is the incremental-maintenance fast path of the
    /// write pipeline: node identities are stable across a node-level
    /// update, and the update overlay reports every label whose
    /// postings or atomised values might have changed as dirty, so the
    /// remaining per-label indexes are bit-identical to what a cold
    /// rebuild would produce and can be carried wholesale. Dirty labels
    /// simply rebuild lazily on first touch, as in a fresh engine.
    pub fn seeded_from(
        doc: impl Into<std::sync::Arc<Document>>,
        metrics: std::sync::Arc<obs::MetricsRegistry>,
        prior: &Engine,
        dirty: &[xmldb::Symbol],
    ) -> Self {
        let engine = Engine::with_metrics(doc, metrics);
        debug_assert!(dirty.is_sorted(), "dirty label list must be sorted");
        for (fresh, old) in engine
            .value_index
            .shards
            .iter()
            .zip(&prior.value_index.shards)
        {
            let old = old
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if old.is_empty() {
                continue;
            }
            let mut fresh = fresh
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (&sym, ix) in old.iter() {
                if dirty.binary_search(&sym).is_err() {
                    fresh.insert(sym, ix.clone());
                }
            }
        }
        engine
    }

    /// The registry this engine records into.
    pub fn metrics(&self) -> &obs::MetricsRegistry {
        &self.metrics
    }

    /// A clonable handle to this engine's registry.
    pub fn metrics_handle(&self) -> std::sync::Arc<obs::MetricsRegistry> {
        self.metrics.clone()
    }

    /// The (lazily built) value index for label `sym`. The returned
    /// `Arc` is a lock-free snapshot: callers with many lookups for the
    /// same label fetch it once and probe the map directly.
    fn value_index_for(&self, sym: xmldb::Symbol) -> std::sync::Arc<ValueIndex> {
        self.metrics.add(obs::Counter::ValueIndexLookups, 1);
        self.value_index.get_or_build(sym, || {
            self.metrics.add(obs::Counter::ValueIndexBuilds, 1);
            let mut m: ValueIndex = std::collections::HashMap::new();
            for &n in self.doc.nodes_with_symbol(sym) {
                let key = canon_value(&self.doc.atom_value(n));
                m.entry(key).or_default().push(n);
            }
            m
        })
    }

    /// The underlying document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// A shared handle to the underlying document.
    pub fn doc_handle(&self) -> std::sync::Arc<Document> {
        self.doc.clone()
    }

    /// Parse and evaluate a query string under the empty environment.
    pub fn run(&self, query: &str) -> Result<Sequence, EvalError> {
        self.run_with_budget(query, &EvalBudget::default())
    }

    /// Parse and evaluate a query string under an explicit budget.
    pub fn run_with_budget(&self, query: &str, budget: &EvalBudget) -> Result<Sequence, EvalError> {
        let expr = parse(query)?;
        self.eval_with_budget(&expr, &Env::new(), budget)
    }

    /// Evaluate a pre-built expression under the empty environment.
    pub fn eval_expr(&self, expr: &Expr) -> Result<Sequence, EvalError> {
        self.eval(expr, &Env::new())
    }

    /// Evaluate a pre-built expression under an explicit budget.
    pub fn eval_expr_with_budget(
        &self,
        expr: &Expr,
        budget: &EvalBudget,
    ) -> Result<Sequence, EvalError> {
        self.eval_with_budget(expr, &Env::new(), budget)
    }

    /// Atomized string value of an item (convenience re-export).
    pub fn item_string(&self, item: &Item) -> String {
        item.string_value(&self.doc)
    }

    /// String values of a whole sequence.
    pub fn strings(&self, seq: &Sequence) -> Vec<String> {
        seq.iter().map(|i| self.item_string(i)).collect()
    }

    /// Evaluate `expr` in `env` under the default [`EvalBudget`].
    pub fn eval(&self, expr: &Expr, env: &Env) -> Result<Sequence, EvalError> {
        self.eval_with_budget(expr, env, &EvalBudget::default())
    }

    /// Evaluate `expr` in `env` under an explicit budget.
    ///
    /// This is the single top-level entry every other evaluation method
    /// funnels through, so it owns the [`obs::Stage::Eval`] span: one
    /// span per evaluation, with the outcome, the wall time, the
    /// tuple-budget consumption, and the recursion-depth high-water
    /// mark all flushed to the engine's registry here.
    pub fn eval_with_budget(
        &self,
        expr: &Expr,
        env: &Env,
        budget: &EvalBudget,
    ) -> Result<Sequence, EvalError> {
        let span = self.metrics.span(obs::Stage::Eval);
        let ledger = Ledger::new();
        let guard = Guard::new(budget, &ledger);
        let out = self.eval_inner(expr, env, &guard, 0);
        self.metrics
            .add(obs::Counter::EvalTuples, ledger.total() as u64);
        self.metrics
            .add(obs::Counter::MqfChecks, guard.mqf_checks.get());
        self.metrics.add(
            obs::Counter::MqfPartnerLookups,
            guard.mqf_partner_lookups.get(),
        );
        self.metrics
            .add(obs::Counter::MemoHits, guard.memo_hits.get());
        self.metrics.record_max(
            obs::MaxGauge::EvalDepthHighWater,
            guard.max_depth.get() as u64,
        );
        span.finish(match &out {
            Ok(_) => obs::SpanOutcome::Ok,
            Err(EvalError::ResourceExhausted { .. }) => obs::SpanOutcome::ResourceExhausted,
            Err(_) => obs::SpanOutcome::EvalError,
        });
        out
    }

    /// The recursive evaluator. `depth` counts descents from the
    /// top-level entry point; the guard trips it against the budget
    /// before any per-node work.
    fn eval_inner(
        &self,
        expr: &Expr,
        env: &Env,
        guard: &Guard<'_>,
        depth: usize,
    ) -> Result<Sequence, EvalError> {
        guard.check_depth(depth)?;
        match expr {
            Expr::Str(s) => Ok(vec![Item::Str(s.clone())]),
            Expr::Num(n) => Ok(vec![Item::Num(*n)]),
            Expr::Path { root, steps } => self.eval_path(root, steps, env),
            Expr::Cmp { op, lhs, rhs } => {
                let l = self.eval_inner(lhs, env, guard, depth + 1)?;
                let r = self.eval_inner(rhs, env, guard, depth + 1)?;
                Ok(vec![Item::Bool(general_compare(&self.doc, *op, &l, &r))])
            }
            Expr::And(parts) => {
                for p in parts {
                    if !effective_boolean(&self.eval_inner(p, env, guard, depth + 1)?) {
                        return Ok(vec![Item::Bool(false)]);
                    }
                }
                Ok(vec![Item::Bool(true)])
            }
            Expr::Or(parts) => {
                for p in parts {
                    if effective_boolean(&self.eval_inner(p, env, guard, depth + 1)?) {
                        return Ok(vec![Item::Bool(true)]);
                    }
                }
                Ok(vec![Item::Bool(false)])
            }
            Expr::Not(inner) => {
                let v = self.eval_inner(inner, env, guard, depth + 1)?;
                Ok(vec![Item::Bool(!effective_boolean(&v))])
            }
            Expr::Agg { func, arg } => {
                let seq = self.eval_inner(arg, env, guard, depth + 1)?;
                aggregate(&self.doc, *func, &seq).map_err(EvalError::TypeError)
            }
            Expr::Mqf(args) => {
                guard.mqf_checks.set(guard.mqf_checks.get() + 1);
                let mut nodes = Vec::new();
                for a in args {
                    let seq = self.eval_inner(a, env, guard, depth + 1)?;
                    for item in seq {
                        match item {
                            Item::Node(id) => nodes.push(id),
                            other => {
                                return Err(EvalError::TypeError(format!(
                                    "mqf() expects nodes, got {}",
                                    other.string_value(&self.doc)
                                )))
                            }
                        }
                    }
                }
                Ok(vec![Item::Bool(set_meaningfully_related(
                    &self.doc, &nodes,
                ))])
            }
            Expr::Quantified {
                quant,
                var,
                source,
                satisfies,
            } => {
                let seq = self.eval_inner(source, env, guard, depth + 1)?;
                let mut any = false;
                let mut all = true;
                for item in seq {
                    let inner = env.bind(var, vec![item]);
                    let ok =
                        effective_boolean(&self.eval_inner(satisfies, &inner, guard, depth + 1)?);
                    any |= ok;
                    all &= ok;
                    // Short-circuit.
                    match quant {
                        Quantifier::Some if any => return Ok(vec![Item::Bool(true)]),
                        Quantifier::Every if !all => return Ok(vec![Item::Bool(false)]),
                        _ => {}
                    }
                }
                Ok(vec![Item::Bool(match quant {
                    Quantifier::Some => any,
                    Quantifier::Every => all,
                })])
            }
            Expr::Seq(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend(self.eval_inner(p, env, guard, depth + 1)?);
                }
                Ok(out)
            }
            Expr::Element { name, content } => {
                let mut children = Vec::new();
                for c in content {
                    children.extend(self.eval_inner(c, env, guard, depth + 1)?);
                }
                Ok(vec![Item::Elem(ConstructedElem {
                    name: name.clone(),
                    children,
                })])
            }
            Expr::Call { name, args } => self.call(name, args, env, guard, depth),
            Expr::Flwor {
                bindings,
                where_clause,
                order_by,
                ret,
            } => {
                // --- Conjunct pushdown -------------------------------
                // A naive nested-loops FLWOR multiplies the label-set
                // sizes of every `for` clause before the `where` filter
                // runs — 5-variable schema-free queries over a 73k-node
                // corpus would enumerate ~10^10 tuples. Instead, the
                // `where` clause is split into conjuncts and each
                // conjunct runs as soon as the variables it references
                // are bound; `mqf()` conjuncts are checked incrementally
                // over every bound subset (pairwise meaningfulness is
                // monotone: a failing subset can never succeed by adding
                // members). This is the evaluation strategy Timber's
                // structural-join plans implement natively.
                let mut conjuncts: Vec<&Expr> = Vec::new();
                if let Some(w) = where_clause.as_deref() {
                    flatten_and(w, &mut conjuncts);
                }

                // Partition conjuncts: mqf over simple variables gets
                // incremental treatment, everything else triggers once.
                let mut mqf_groups: Vec<Vec<&str>> = Vec::new();
                let mut plain_conjuncts: Vec<&Expr> = Vec::new();
                for c in &conjuncts {
                    if let Expr::Mqf(args) = c {
                        let simple: Option<Vec<&str>> = args
                            .iter()
                            .map(|a| match a {
                                Expr::Path {
                                    root: PathRoot::Var(v),
                                    steps,
                                } if steps.is_empty() => Some(v.as_str()),
                                _ => None,
                            })
                            .collect();
                        if let Some(vars) = simple {
                            mqf_groups.push(vars);
                            continue;
                        }
                    }
                    plain_conjuncts.push(c);
                }

                // Variable-to-variable equality conjuncts (`$a = $b`):
                // these drive the value-index join. Stored both ways
                // round.
                let mut eq_pairs: Vec<(&str, &str)> = Vec::new();
                for c in &plain_conjuncts {
                    if let Expr::Cmp {
                        op: CmpOp::Eq,
                        lhs,
                        rhs,
                    } = c
                    {
                        if let (
                            Expr::Path {
                                root: PathRoot::Var(a),
                                steps: sa,
                            },
                            Expr::Path {
                                root: PathRoot::Var(b),
                                steps: sb,
                            },
                        ) = (lhs.as_ref(), rhs.as_ref())
                        {
                            if sa.is_empty() && sb.is_empty() {
                                eq_pairs.push((a.as_str(), b.as_str()));
                                eq_pairs.push((b.as_str(), a.as_str()));
                            }
                        }
                    }
                }

                // Variable-to-literal equality conjuncts (`$v = "…"`,
                // `$v = 42`): when `$v` ranges over a label scan these
                // resolve through the value index — the candidate set is
                // one hash probe over the label's value column instead
                // of a scan over every labelled node. The canonical key
                // mirrors `compare_items` equality exactly, and the
                // conjunct itself still runs per tuple, so the pushdown
                // only narrows candidates, never changes results.
                let mut lit_eqs: Vec<(&str, String)> = Vec::new();
                for c in &plain_conjuncts {
                    if let Expr::Cmp {
                        op: CmpOp::Eq,
                        lhs,
                        rhs,
                    } = c
                    {
                        let pair = match (lhs.as_ref(), rhs.as_ref()) {
                            (
                                Expr::Path {
                                    root: PathRoot::Var(v),
                                    steps,
                                },
                                lit,
                            ) if steps.is_empty() => Some((v, lit)),
                            (
                                lit,
                                Expr::Path {
                                    root: PathRoot::Var(v),
                                    steps,
                                },
                            ) if steps.is_empty() => Some((v, lit)),
                            _ => None,
                        };
                        let key = match pair {
                            Some((_, Expr::Str(s))) => Some(canon_value(s)),
                            Some((_, Expr::Num(n))) => Some(crate::value::format_number(*n)),
                            _ => None,
                        };
                        if let (Some((v, _)), Some(k)) = (pair, key) {
                            lit_eqs.push((v.as_str(), k));
                        }
                    }
                }
                let lit_vars: Vec<&str> = lit_eqs.iter().map(|(v, _)| *v).collect();

                // --- Join-order planning -----------------------------
                // Greedy: place the smallest un-anchored label scan
                // first; after that prefer variables an mqf conjunct
                // anchors to something already bound (their candidates
                // come from the partner index, so their cost is
                // O(partners), independent of label-set size). This is
                // the order a cost-based optimizer would pick for
                // structural joins, and it is what keeps e.g.
                // title×author×book from scanning 4800 article titles
                // against every book.
                let exec = self.plan_order(bindings, &mqf_groups, &eq_pairs, &lit_vars, env);
                let ordered: Vec<&Binding> = exec.iter().map(|&i| &bindings[i]).collect();
                let var_names: Vec<&str> = ordered.iter().map(|b| b.var()).collect();

                // Trigger step of an expression: the last FLWOR binding
                // it depends on (0 = before any binding).
                let step_of = |e: &Expr| -> usize {
                    var_names
                        .iter()
                        .enumerate()
                        .rev()
                        .find(|(_, v)| e.references_var(v))
                        .map(|(i, _)| i + 1)
                        .unwrap_or(0)
                };
                let mut triggered: Vec<Vec<&Expr>> = vec![Vec::new(); ordered.len() + 1];
                for c in plain_conjuncts {
                    triggered[step_of(c)].push(c);
                }
                // Incremental mqf conjuncts: (simple-var args, steps at
                // which to re-check).
                let mqf_incremental: Vec<(Vec<&str>, Vec<usize>)> = mqf_groups
                    .into_iter()
                    .map(|vars| {
                        let mut steps: Vec<usize> = vars
                            .iter()
                            .map(|v| {
                                var_names
                                    .iter()
                                    .position(|n| n == v)
                                    .map(|i| i + 1)
                                    .unwrap_or(0)
                            })
                            .collect();
                        steps.sort_unstable();
                        steps.dedup();
                        (vars, steps)
                    })
                    .collect();

                // The per-tuple admission check for binding step `k`.
                // A closure (not a macro) so worker shards can run it
                // against their own thread-local guard.
                // `skip_mqf` names one group whose step-`k` re-check is
                // provably redundant: the binding's candidates were
                // enumerated from the partner index, which only yields
                // nodes meaningfully related to the anchor, and the
                // anchor was the group's sole previously-bound variable
                // — so every pair the check would test is already known
                // to hold.
                let admit = |e2: &Env,
                             k: usize,
                             g: &Guard<'_>,
                             skip_mqf: Option<usize>|
                 -> Result<bool, EvalError> {
                    for (gi, (vars, steps)) in mqf_incremental.iter().enumerate() {
                        if skip_mqf == Some(gi) {
                            continue;
                        }
                        if steps.contains(&k) && !self.partial_mqf(vars, e2, g)? {
                            return Ok(false);
                        }
                    }
                    for c in &triggered[k] {
                        if !effective_boolean(&self.eval_inner(c, e2, g, depth + 1)?) {
                            return Ok(false);
                        }
                    }
                    Ok(true)
                };

                let mut stream: Vec<Env> = Vec::new();
                if admit(env, 0, guard, None)? {
                    stream.push(env.clone());
                }
                for (i, b) in ordered.iter().enumerate() {
                    let k = i + 1;
                    match b {
                        Binding::For { var, source } => {
                            // Index-driven candidate generation: when
                            // this variable ranges over `doc()//label`
                            // and an mqf conjunct ties it to an
                            // already-bound node, enumerate only the
                            // meaningful partners of that anchor instead
                            // of every `label` node — the difference
                            // between O(partners) and O(|label|) per
                            // tuple, and what keeps multi-variable
                            // schema-free queries tractable at the
                            // paper's corpus scale.
                            let fast_labels: Option<Vec<xmldb::Symbol>> = match source {
                                Expr::Path {
                                    root: PathRoot::Doc(_),
                                    steps,
                                } if steps.len() == 1
                                    && steps[0].axis == StepAxis::Descendant
                                    && !steps[0].names.is_empty() =>
                                {
                                    let syms: Vec<xmldb::Symbol> = steps[0]
                                        .names
                                        .iter()
                                        .filter_map(|n| self.doc.lookup(n))
                                        .collect();
                                    Some(syms)
                                }
                                _ => None,
                            };
                            let mqf_partners: Vec<(usize, &Vec<&str>)> = mqf_incremental
                                .iter()
                                .enumerate()
                                .filter(|(_, (vars, _))| vars.contains(&var.as_str()))
                                .map(|(gi, (vars, _))| (gi, vars))
                                .collect();

                            let eq_partners: Vec<&str> = eq_pairs
                                .iter()
                                .filter(|(a, _)| *a == var.as_str())
                                .map(|(_, b)| *b)
                                .collect();

                            // Hoist the value-index lookups out of the
                            // tuple loop: one cache round-trip (a lock
                            // acquisition under concurrency) per label
                            // per binding, not per candidate tuple.
                            let lit_keys: Vec<&str> = lit_eqs
                                .iter()
                                .filter(|(v, _)| *v == var.as_str())
                                .map(|(_, key)| key.as_str())
                                .collect();
                            let eq_indexes: Vec<std::sync::Arc<ValueIndex>> =
                                match (&fast_labels, eq_partners.is_empty() && lit_keys.is_empty())
                                {
                                    (Some(labels), false) => {
                                        labels.iter().map(|&l| self.value_index_for(l)).collect()
                                    }
                                    _ => Vec::new(),
                                };

                            // Literal-equality candidates do not depend
                            // on the tuple: one index probe covers the
                            // whole binding step. (Further literal
                            // conjuncts on the same variable still run
                            // per tuple; the first only narrows.)
                            let lit_candidates: Option<Vec<Item>> =
                                match (lit_keys.first(), eq_indexes.is_empty()) {
                                    (Some(&key), false) => {
                                        let mut c: Vec<NodeId> = eq_indexes
                                            .iter()
                                            .flat_map(|ix| ix.get(key).cloned().unwrap_or_default())
                                            .collect();
                                        c.sort_by_key(|&n| self.doc.pre(n));
                                        c.dedup();
                                        Some(c.into_iter().map(Item::Node).collect())
                                    }
                                    _ => None,
                                };

                            let labels_len = fast_labels.as_ref().map_or(0, Vec::len);

                            // Expand one tuple: generate this binding's
                            // candidates (literal probe, then equality
                            // join — most selective — then mqf partner
                            // enumeration), charge them, admit the
                            // survivors. Runs against the caller's
                            // guard on this thread or a shard's guard
                            // on a worker; `probes` carries the calling
                            // sweep's per-label partner cursors.
                            let expand = |e: &Env,
                                          g: &Guard<'_>,
                                          probes: &mut [crate::mlca::PartnerProbe],
                                          next: &mut Vec<Env>|
                             -> Result<(), EvalError> {
                                let mut candidates: Option<Vec<Item>> = lit_candidates.clone();
                                let mut skip_mqf: Option<usize> = None;
                                if candidates.is_none() && !eq_indexes.is_empty() {
                                    for &w in &eq_partners {
                                        let Some(seq) = e.get(w) else { continue };
                                        let [item] = seq.as_slice() else { continue };
                                        let key = canon_value(&item.atom_value(&self.doc));
                                        let mut c: Vec<NodeId> = eq_indexes
                                            .iter()
                                            .flat_map(|ix| {
                                                ix.get(&key).cloned().unwrap_or_default()
                                            })
                                            .collect();
                                        c.sort_by_key(|&n| self.doc.pre(n));
                                        c.dedup();
                                        candidates = Some(c.into_iter().map(Item::Node).collect());
                                        break;
                                    }
                                }
                                if candidates.is_none() {
                                    if let Some(labels) = &fast_labels {
                                        'anchor: for &(gi, vars) in &mqf_partners {
                                            for &v2 in vars.iter() {
                                                if v2 == var {
                                                    continue;
                                                }
                                                let Some(seq) = e.get(v2) else { continue };
                                                let [Item::Node(a)] = seq.as_slice() else {
                                                    continue;
                                                };
                                                // The index only yields
                                                // partners of `a`; when
                                                // `v2` is the group's sole
                                                // bound variable, the
                                                // step-k group re-check
                                                // would test exactly that
                                                // guaranteed pair.
                                                if vars
                                                    .iter()
                                                    .filter(|&&w| w != var && e.get(w).is_some())
                                                    .count()
                                                    == 1
                                                {
                                                    skip_mqf = Some(gi);
                                                }
                                                g.mqf_partner_lookups.set(
                                                    g.mqf_partner_lookups.get()
                                                        + labels.len() as u64,
                                                );
                                                let mut c: Vec<NodeId> = Vec::new();
                                                for (j, &l) in labels.iter().enumerate() {
                                                    c.extend(
                                                        crate::mlca::meaningful_partners_indexed_from(
                                                            &self.doc, *a, l, &mut probes[j],
                                                        ),
                                                    );
                                                }
                                                c.sort_by_key(|&n| self.doc.pre(n));
                                                c.dedup();
                                                candidates =
                                                    Some(c.into_iter().map(Item::Node).collect());
                                                break 'anchor;
                                            }
                                        }
                                    }
                                }
                                let items = match candidates {
                                    Some(c) => c,
                                    None => self.eval_inner(source, e, g, depth + 1)?,
                                };
                                g.charge_tuples(items.len())?;
                                for item in items {
                                    let e2 = e.bind(var, vec![item]);
                                    if admit(&e2, k, g, skip_mqf)? {
                                        next.push(e2);
                                    }
                                }
                                Ok(())
                            };

                            let shards = plan_shards(guard.budget, stream.len());
                            if shards > 1 {
                                self.metrics
                                    .add(obs::Counter::EvalShardSpawns, shards as u64);
                                let seed = guard.seed();
                                let expand = &expand;
                                let chunk = stream.len().div_ceil(shards);
                                let results: Vec<Result<(Vec<Env>, ShardStats), EvalError>> =
                                    std::thread::scope(|s| {
                                        let handles: Vec<_> = stream
                                            .chunks(chunk)
                                            .map(|c| {
                                                s.spawn(move || {
                                                    let g = seed.guard();
                                                    let mut probes = vec![
                                                        crate::mlca::PartnerProbe::default();
                                                        labels_len
                                                    ];
                                                    let mut next = Vec::new();
                                                    for e in c {
                                                        expand(e, &g, &mut probes, &mut next)?;
                                                    }
                                                    Ok((next, g.stats()))
                                                })
                                            })
                                            .collect();
                                        handles
                                            .into_iter()
                                            .map(|h| match h.join() {
                                                Ok(r) => r,
                                                Err(p) => std::panic::resume_unwind(p),
                                            })
                                            .collect()
                                    });
                                // Stitch in chunk (= serial) order; on
                                // failure report the earliest chunk's
                                // error, which is deterministic.
                                let mut next = Vec::new();
                                for r in results {
                                    let (part, stats) = r?;
                                    guard.absorb(&stats);
                                    next.extend(part);
                                }
                                stream = next;
                            } else {
                                let mut probes =
                                    vec![crate::mlca::PartnerProbe::default(); labels_len];
                                let mut next = Vec::new();
                                for e in &stream {
                                    expand(e, guard, &mut probes, &mut next)?;
                                }
                                stream = next;
                            }
                        }
                        Binding::Let { var, value } => {
                            // A body that sees the outer tuple only
                            // through value comparisons is evaluated once
                            // per distinct key; the memo lives for this
                            // one FLWOR evaluation. Each tuple is still
                            // charged.
                            let keyed = value_keyed_vars(value);
                            let mut memo: HashMap<MemoKey, Sequence> = HashMap::new();
                            let mut next = Vec::with_capacity(stream.len());
                            for e in &stream {
                                guard.charge_tuples(1)?;
                                let key = keyed
                                    .as_deref()
                                    .and_then(|vars| memo_key(&self.doc, vars, e));
                                let v = match key {
                                    Some(key) => match memo.entry(key) {
                                        Entry::Occupied(hit) => {
                                            guard.memo_hits.set(guard.memo_hits.get() + 1);
                                            hit.get().clone()
                                        }
                                        Entry::Vacant(slot) => slot
                                            .insert(self.eval_inner(value, e, guard, depth + 1)?)
                                            .clone(),
                                    },
                                    None => self.eval_inner(value, e, guard, depth + 1)?,
                                };
                                let e2 = e.bind(var, v);
                                if admit(&e2, k, guard, None)? {
                                    next.push(e2);
                                }
                            }
                            stream = next;
                        }
                    }
                }
                // The planner may have permuted the nested-loop order;
                // the surviving tuple *set* is identical, so restoring
                // the specified order is a sort on the bound nodes'
                // document positions, taken in source binding order.
                if exec.iter().enumerate().any(|(i, &j)| i != j) {
                    let original_names: Vec<&str> = bindings.iter().map(Binding::var).collect();
                    stream.sort_by_cached_key(|e| {
                        original_names
                            .iter()
                            .map(|n| match e.get(n).map(Vec::as_slice) {
                                Some([Item::Node(id)]) => self.doc.pre(*id) as u64,
                                _ => 0,
                            })
                            .collect::<Vec<u64>>()
                    });
                }
                if !order_by.is_empty() {
                    // Precompute keys (evaluation may error, so do it
                    // before sorting).
                    let mut keyed: Vec<(Vec<SortKey>, Env)> = Vec::with_capacity(stream.len());
                    for e in stream {
                        let mut keys = Vec::with_capacity(order_by.len());
                        for k in order_by {
                            let seq = self.eval_inner(&k.expr, &e, guard, depth + 1)?;
                            keys.push(SortKey::first(&self.doc, &seq));
                        }
                        keyed.push((keys, e));
                    }
                    // `SortKey::total_cmp` is a total order, as
                    // `sort_by` requires (it may panic otherwise).
                    keyed.sort_by(|(ka, _), (kb, _)| {
                        for ((a, b), spec) in ka.iter().zip(kb).zip(order_by) {
                            let o = a.total_cmp(b);
                            let o = match spec.dir {
                                OrderDir::Ascending => o,
                                OrderDir::Descending => o.reverse(),
                            };
                            if o != std::cmp::Ordering::Equal {
                                return o;
                            }
                        }
                        std::cmp::Ordering::Equal
                    });
                    stream = keyed.into_iter().map(|(_, e)| e).collect();
                }
                // The return clause is per-tuple and order-preserving,
                // so it shards the same way binding expansion does:
                // contiguous chunks, results concatenated in chunk
                // order — byte-identical to the serial loop.
                let emit = |e: &Env, g: &Guard<'_>| -> Result<Sequence, EvalError> {
                    g.charge_tuples(1)?;
                    self.eval_inner(ret, e, g, depth + 1)
                };
                let shards = plan_shards(guard.budget, stream.len());
                if shards > 1 {
                    self.metrics
                        .add(obs::Counter::EvalShardSpawns, shards as u64);
                    let seed = guard.seed();
                    let emit = &emit;
                    let chunk = stream.len().div_ceil(shards);
                    let results: Vec<Result<(Sequence, ShardStats), EvalError>> =
                        std::thread::scope(|s| {
                            let handles: Vec<_> = stream
                                .chunks(chunk)
                                .map(|c| {
                                    s.spawn(move || {
                                        let g = seed.guard();
                                        let mut part = Vec::new();
                                        for e in c {
                                            part.extend(emit(e, &g)?);
                                        }
                                        Ok((part, g.stats()))
                                    })
                                })
                                .collect();
                            handles
                                .into_iter()
                                .map(|h| match h.join() {
                                    Ok(r) => r,
                                    Err(p) => std::panic::resume_unwind(p),
                                })
                                .collect()
                        });
                    let mut out = Vec::new();
                    for r in results {
                        let (part, stats) = r?;
                        guard.absorb(&stats);
                        out.extend(part);
                    }
                    Ok(out)
                } else {
                    let mut out = Vec::new();
                    for e in &stream {
                        out.extend(emit(e, guard)?);
                    }
                    Ok(out)
                }
            }
        }
    }

    /// Greedy join-order planner for a FLWOR's bindings.
    ///
    /// Returns a permutation of binding indices. Invariants:
    /// - a binding never runs before another binding whose variable its
    ///   source expression references (data dependencies);
    /// - among runnable bindings, prefer (1) per-tuple paths like
    ///   `$b/author` (cheap), then (2) label scans that an mqf conjunct
    ///   anchors to an already-placed variable (candidates come from
    ///   the partner index), then (3) the *smallest* unanchored label
    ///   scan, and `let` bindings last (their values often aggregate
    ///   over the already-joined variables).
    pub(crate) fn plan_order(
        &self,
        bindings: &[Binding],
        mqf_groups: &[Vec<&str>],
        eq_pairs: &[(&str, &str)],
        lit_vars: &[&str],
        env: &Env,
    ) -> Vec<usize> {
        let names: Vec<&str> = bindings.iter().map(Binding::var).collect();
        let mut placed = vec![false; bindings.len()];
        let mut out = Vec::with_capacity(bindings.len());
        while out.len() < bindings.len() {
            let mut best: Option<(u64, usize)> = None;
            for i in 0..bindings.len() {
                if placed[i] {
                    continue;
                }
                let source = match &bindings[i] {
                    Binding::For { source, .. } => source,
                    Binding::Let { value, .. } => value,
                };
                // Data dependencies on not-yet-placed FLWOR variables.
                let deps_ok = names
                    .iter()
                    .enumerate()
                    .all(|(j, n)| placed[j] || j == i || !source.references_var(n));
                if !deps_ok {
                    continue;
                }
                let score: u64 = match &bindings[i] {
                    Binding::Let { .. } => 1 << 60,
                    Binding::For { var, source } => match source {
                        Expr::Path {
                            root: PathRoot::Doc(_),
                            steps,
                        } if steps.len() == 1
                            && steps[0].axis == StepAxis::Descendant
                            && !steps[0].names.is_empty() =>
                        {
                            let size: u64 = steps[0]
                                .names
                                .iter()
                                .map(|n| self.doc.nodes_labeled(n).len() as u64)
                                .sum();
                            let available = |v: &str| {
                                env.contains(v)
                                    || names.iter().enumerate().any(|(j, n)| placed[j] && *n == v)
                            };
                            let anchored =
                                mqf_groups.iter().any(|vars| {
                                    vars.contains(&var.as_str())
                                        && vars.iter().any(|v| *v != var && available(v))
                                }) || eq_pairs.iter().any(|(a, b)| a == var && available(b))
                                    || lit_vars.contains(&var.as_str());
                            if anchored {
                                1 << 10
                            } else {
                                (1 << 40) + size
                            }
                        }
                        _ => 1 << 20,
                    },
                };
                if best.is_none_or(|(s, _)| score < s) {
                    best = Some((score, i));
                }
            }
            let i = match best {
                Some((_, i)) => i,
                None => {
                    // Cyclic data dependencies among binding sources
                    // cannot come out of the translator, but a
                    // hand-written query can express them. Fall back to
                    // source order for the rest; evaluation then reports
                    // the unbound variable instead of planning dying.
                    for (j, p) in placed.iter_mut().enumerate() {
                        if !*p {
                            *p = true;
                            out.push(j);
                        }
                    }
                    continue;
                }
            };
            placed[i] = true;
            out.push(i);
        }
        out
    }

    /// Incremental mqf check over whichever of `vars` are bound in
    /// `env`. Sound because pairwise meaningfulness over a subset is
    /// necessary for the full set.
    fn partial_mqf(&self, vars: &[&str], env: &Env, guard: &Guard) -> Result<bool, EvalError> {
        guard.mqf_checks.set(guard.mqf_checks.get() + 1);
        let mut nodes: Vec<NodeId> = Vec::with_capacity(vars.len());
        for v in vars {
            let Some(seq) = env.get(v) else { continue };
            for item in seq {
                match item {
                    Item::Node(id) => nodes.push(*id),
                    other => {
                        return Err(EvalError::TypeError(format!(
                            "mqf() expects nodes, got {}",
                            other.string_value(&self.doc)
                        )))
                    }
                }
            }
        }
        Ok(set_meaningfully_related(&self.doc, &nodes))
    }

    fn eval_path(&self, root: &PathRoot, steps: &[Step], env: &Env) -> Result<Sequence, EvalError> {
        // Starting context node set.
        let mut ctx: Vec<NodeId> = match root {
            PathRoot::Doc(_) => vec![self.doc.root()],
            PathRoot::Var(v) => {
                let seq = env
                    .get(v)
                    .ok_or_else(|| EvalError::UnboundVariable(v.clone()))?;
                if steps.is_empty() {
                    return Ok(seq.clone());
                }
                let mut nodes = Vec::with_capacity(seq.len());
                for item in seq {
                    match item {
                        Item::Node(id) => nodes.push(*id),
                        other => {
                            return Err(EvalError::TypeError(format!(
                                "path step applied to non-node value `{}`",
                                other.string_value(&self.doc)
                            )))
                        }
                    }
                }
                nodes
            }
        };
        let from_doc = matches!(root, PathRoot::Doc(_));
        for (si, step) in steps.iter().enumerate() {
            let mut next: Vec<NodeId> = Vec::new();
            for &n in &ctx {
                match step.axis {
                    StepAxis::Child => {
                        for c in self.doc.children(n) {
                            if self.step_matches(step, c) {
                                next.push(c);
                            }
                        }
                    }
                    StepAxis::Descendant => {
                        // `doc()//x` may match the root element itself
                        // (the document node is its parent); `$v//x`
                        // matches proper descendants only.
                        if si == 0 && from_doc && self.step_matches(step, n) {
                            next.push(n);
                        }
                        for c in self.doc.descendants(n) {
                            if self.step_matches(step, c) {
                                next.push(c);
                            }
                        }
                    }
                }
            }
            // Document order, no duplicates.
            next.sort_by_key(|&id| self.doc.pre(id));
            next.dedup();
            ctx = next;
        }
        Ok(ctx.into_iter().map(Item::Node).collect())
    }

    fn step_matches(&self, step: &Step, n: NodeId) -> bool {
        if self.doc.kind(n) == NodeKind::Text {
            return false;
        }
        if step.is_wildcard() {
            return true;
        }
        let label = self.doc.label(n);
        step.names.iter().any(|name| name == label)
    }

    fn call(
        &self,
        name: &str,
        args: &[Expr],
        env: &Env,
        guard: &Guard<'_>,
        depth: usize,
    ) -> Result<Sequence, EvalError> {
        let arity = |expected: usize| -> Result<(), EvalError> {
            if args.len() != expected {
                Err(EvalError::WrongArity {
                    name: name.to_owned(),
                    expected,
                    got: args.len(),
                })
            } else {
                Ok(())
            }
        };
        let first_string = |seq: &Sequence| -> String {
            seq.first()
                .map(|i| i.string_value(&self.doc))
                .unwrap_or_default()
        };
        match name {
            "contains" => {
                arity(2)?;
                let a = first_string(&self.eval_inner(&args[0], env, guard, depth + 1)?);
                let b = first_string(&self.eval_inner(&args[1], env, guard, depth + 1)?);
                Ok(vec![Item::Bool(a.contains(&b))])
            }
            "starts-with" => {
                arity(2)?;
                let a = first_string(&self.eval_inner(&args[0], env, guard, depth + 1)?);
                let b = first_string(&self.eval_inner(&args[1], env, guard, depth + 1)?);
                Ok(vec![Item::Bool(a.starts_with(&b))])
            }
            "ends-with" => {
                arity(2)?;
                let a = first_string(&self.eval_inner(&args[0], env, guard, depth + 1)?);
                let b = first_string(&self.eval_inner(&args[1], env, guard, depth + 1)?);
                Ok(vec![Item::Bool(a.ends_with(&b))])
            }
            "string-length" => {
                arity(1)?;
                let a = first_string(&self.eval_inner(&args[0], env, guard, depth + 1)?);
                Ok(vec![Item::Num(a.chars().count() as f64)])
            }
            "string" => {
                arity(1)?;
                let a = first_string(&self.eval_inner(&args[0], env, guard, depth + 1)?);
                Ok(vec![Item::Str(a)])
            }
            "number" => {
                arity(1)?;
                let seq = self.eval_inner(&args[0], env, guard, depth + 1)?;
                let n = seq
                    .first()
                    .and_then(|i| i.numeric_value(&self.doc))
                    .unwrap_or(f64::NAN);
                Ok(vec![Item::Num(n)])
            }
            "concat" => {
                let mut out = String::new();
                for a in args {
                    out.push_str(&first_string(&self.eval_inner(a, env, guard, depth + 1)?));
                }
                Ok(vec![Item::Str(out)])
            }
            "name" => {
                arity(1)?;
                let seq = self.eval_inner(&args[0], env, guard, depth + 1)?;
                match seq.first() {
                    Some(Item::Node(id)) => Ok(vec![Item::Str(self.doc.label(*id).to_owned())]),
                    Some(Item::Elem(e)) => Ok(vec![Item::Str(e.name.clone())]),
                    _ => Ok(vec![Item::Str(String::new())]),
                }
            }
            "data" => {
                arity(1)?;
                let seq = self.eval_inner(&args[0], env, guard, depth + 1)?;
                Ok(seq
                    .iter()
                    .map(|i| Item::Str(i.string_value(&self.doc)))
                    .collect())
            }
            "distinct-values" => {
                arity(1)?;
                let seq = self.eval_inner(&args[0], env, guard, depth + 1)?;
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for item in seq {
                    let s = item.string_value(&self.doc);
                    if seen.insert(s.clone()) {
                        out.push(Item::Str(s));
                    }
                }
                Ok(out)
            }
            "empty" => {
                arity(1)?;
                let seq = self.eval_inner(&args[0], env, guard, depth + 1)?;
                Ok(vec![Item::Bool(seq.is_empty())])
            }
            "exists" => {
                arity(1)?;
                let seq = self.eval_inner(&args[0], env, guard, depth + 1)?;
                Ok(vec![Item::Bool(!seq.is_empty())])
            }
            "true" => {
                arity(0)?;
                Ok(vec![Item::Bool(true)])
            }
            "false" => {
                arity(0)?;
                Ok(vec![Item::Bool(false)])
            }
            other => Err(EvalError::UnknownFunction(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb::datasets::bib::bib;
    use xmldb::datasets::movies::{movies, movies_and_books};

    fn run(doc: &Document, q: &str) -> Vec<String> {
        let e = Engine::new(doc.clone());
        let out = e
            .run(q)
            .unwrap_or_else(|err| panic!("query failed: {err}\n{q}"));
        e.strings(&out)
    }

    #[test]
    fn engine_and_env_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Env>();
    }

    #[test]
    fn value_index_is_shared_across_threads() {
        let doc = movies();
        let e = Engine::new(doc.clone());
        let q = "for $m in doc(\"movies.xml\")//movie, $d in doc(\"movies.xml\")//director \
                 where $d = \"Ron Howard\" and mqf($m, $d) return $m/title";
        let serial = e.strings(&e.run(q).unwrap());
        let parallel: Vec<Vec<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| e.strings(&e.run(q).unwrap())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in parallel {
            assert_eq!(p, serial);
        }
    }

    /// Plan the bindings of a parsed FLWOR and return the variable names
    /// in execution order.
    fn plan_of(doc: &Document, q: &str) -> Vec<String> {
        let e = Engine::new(doc.clone());
        let expr = parse(q).unwrap();
        let Expr::Flwor {
            bindings,
            where_clause,
            ..
        } = &expr
        else {
            panic!("not a FLWOR")
        };
        let mut conjuncts = Vec::new();
        if let Some(w) = where_clause.as_deref() {
            flatten_and(w, &mut conjuncts);
        }
        let mut mqf_groups: Vec<Vec<&str>> = Vec::new();
        let mut eq_pairs: Vec<(&str, &str)> = Vec::new();
        for c in &conjuncts {
            match c {
                Expr::Mqf(args) => {
                    mqf_groups.push(
                        args.iter()
                            .filter_map(|a| match a {
                                Expr::Path {
                                    root: PathRoot::Var(v),
                                    steps,
                                } if steps.is_empty() => Some(v.as_str()),
                                _ => None,
                            })
                            .collect(),
                    );
                }
                Expr::Cmp {
                    op: CmpOp::Eq,
                    lhs,
                    rhs,
                } => {
                    if let (
                        Expr::Path {
                            root: PathRoot::Var(a),
                            steps: sa,
                        },
                        Expr::Path {
                            root: PathRoot::Var(b),
                            steps: sb,
                        },
                    ) = (lhs.as_ref(), rhs.as_ref())
                    {
                        if sa.is_empty() && sb.is_empty() {
                            eq_pairs.push((a, b));
                            eq_pairs.push((b, a));
                        }
                    }
                }
                _ => {}
            }
        }
        let order = e.plan_order(bindings, &mqf_groups, &eq_pairs, &[], &Env::new());
        order
            .into_iter()
            .map(|i| bindings[i].var().to_owned())
            .collect()
    }

    #[test]
    fn memo_keys_only_value_compared_outer_variables() {
        let keyed = |body: &str| {
            let e = parse(body).unwrap();
            value_keyed_vars(&e).map(|vars| vars.join(","))
        };
        // Fig. 6: a fresh copy of the core token joined by value.
        let fig6 = "for $v3 in doc()//year, $v4 in doc()//title \
                    where mqf($v3,$v4) and $v4 = $v1 return $v3";
        assert_eq!(keyed(fig6).as_deref(), Some("v1"));
        assert_eq!(
            keyed("for $t in doc()//title where $v2 < $t and $t = $v1 return $t").as_deref(),
            Some("v1,v2")
        );
        // Structural uses of the outer variable.
        for body in [
            "for $x in doc()//year where mqf($x, $v1) return $x",
            "$v1/author",
            "for $t in doc()//title where count($v1) >= 1 and $t = $v1 return $t",
            "for $t in doc()//title where $t = $v1/title return $t",
            "for $t in doc()//title where $t = $v1 return $v1",
            "for $t in doc()//title where contains($t, $v1) return $t",
        ] {
            assert_eq!(keyed(body), None, "{body}");
        }
        // No outer reference, and variables bound inside the body.
        assert_eq!(
            keyed("for $a in doc()//author return $a").as_deref(),
            Some("")
        );
        assert_eq!(
            keyed("for $v1 in doc()//title return $v1/author").as_deref(),
            Some("")
        );
        assert_eq!(
            keyed("some $v1 in doc()//title satisfies $v1/author = $w").as_deref(),
            Some("w")
        );
        // A binding sees only the bindings before it.
        assert_eq!(keyed("for $a in $b/x, $b in doc()//y return $a"), None);
    }

    #[test]
    fn planner_starts_with_smallest_label_scan() {
        let d = movies(); // 2 year, 5 movie, 5 title nodes
        let plan = plan_of(
            &d,
            "for $t in doc()//title, $y in doc()//year, $m in doc()//movie \
             where mqf($t, $y) and mqf($t, $m) return $t",
        );
        assert_eq!(plan[0], "y", "{plan:?}"); // the 2-node label first
    }

    #[test]
    fn planner_prefers_anchored_scans_after_the_first() {
        let d = movies();
        let plan = plan_of(
            &d,
            "for $t in doc()//title, $m in doc()//movie, $d in doc()//director \
             where mqf($t, $m) and mqf($m, $d) return $t",
        );
        // all labels have 5 nodes; after the first, the rest must be
        // anchored via mqf — every subsequent var shares an mqf group
        // with an earlier one
        assert_eq!(plan.len(), 3);
        let first = &plan[0];
        assert!(["t", "m", "d"].contains(&first.as_str()));
    }

    #[test]
    fn planner_respects_data_dependencies() {
        let d = bib();
        let plan = plan_of(
            &d,
            "for $b in doc()//book, $a in $b/author where $a = \"x\" return $b",
        );
        // $a's source references $b, so $b must come first even though
        // per-tuple paths are otherwise preferred.
        assert_eq!(plan, vec!["b", "a"]);
    }

    #[test]
    fn planner_puts_lets_last() {
        let d = bib();
        let plan = plan_of(
            &d,
            "for $b in doc()//book let $p := $b/price where count($p) > 0 return $b",
        );
        assert_eq!(plan, vec!["b", "p"]);
    }

    #[test]
    fn planner_output_order_is_preserved() {
        // Whatever the internal order, results come back in the
        // specification's nested-loop order.
        let d = movies();
        let out = run(
            &d,
            "for $t in doc()//title, $y in doc()//year \
             where mqf($t, $y) return ($t, $y)",
        );
        // titles in document order, each with its year
        assert_eq!(out.len(), 10);
        assert_eq!(out[0], "How the Grinch Stole Christmas");
        assert!(out[1].starts_with("2000"));
        let last_title = &out[8];
        assert_eq!(last_title, "The Lord of the Rings");
    }

    #[test]
    fn simple_path_query() {
        let d = movies();
        let out = run(&d, "for $t in doc()//title return $t");
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], "How the Grinch Stole Christmas");
    }

    #[test]
    fn root_matches_descendant_axis_from_doc() {
        let d = movies();
        let out = run(&d, "for $m in doc()//movies return $m/year");
        // root element itself matched; two year children.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn where_filters_by_value() {
        let d = movies();
        let out = run(
            &d,
            "for $dd in doc()//director where $dd = \"Ron Howard\" return $dd",
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn mqf_schema_free_join() {
        let d = movies();
        let out = run(
            &d,
            "for $dd in doc()//director, $t in doc()//title \
             where mqf($dd, $t) and $t = \"Traffic\" return $dd",
        );
        assert_eq!(out, vec!["Steven Soderbergh"]);
    }

    #[test]
    fn figure9_query2_full_translation() {
        // "Return every director who has directed as many movies as has
        // Ron Howard" — Figure 9's translated form, against Figure 1
        // data. Ron Howard directed 2, Steven Soderbergh directed 2.
        let d = movies();
        let q = r#"
        for $v1 in doc("movie.xml")//director, $v4 in doc("movie.xml")//director
        let $vars1 := { for $v5 in doc("movie.xml")//director, $v2 in doc("movie.xml")//movie
                        where mqf($v2,$v5) and $v5 = $v1 return $v2 }
        let $vars2 := { for $v6 in doc("movie.xml")//director, $v3 in doc("movie.xml")//movie
                        where mqf($v3,$v6) and $v6 = $v4 return $v3 }
        where count($vars1) = count($vars2) and $v4 = "Ron Howard"
        return $v1"#;
        let mut out = run(&d, q);
        out.sort();
        out.dedup();
        assert_eq!(out, vec!["Ron Howard", "Steven Soderbergh"]);
    }

    #[test]
    fn query3_title_value_join() {
        // "Return the directors of movies, where the title of each movie
        // is the same as the title of a book."
        let d = movies_and_books();
        let q = r#"
        for $d in doc()//director, $mt in doc()//title,
            $b in doc()//book, $bt in doc()//title
        where mqf($d, $mt) and mqf($b, $bt) and $mt = $bt and not($d = $bt)
        return $d"#;
        // Simpler faithful form: directors whose movie title equals some
        // book's title. The only shared title is "Traffic".
        let e = Engine::new(d.clone());
        let out = e.run(q).unwrap();
        let mut names = e.strings(&out);
        names.sort();
        names.dedup();
        assert!(names.contains(&"Steven Soderbergh".to_owned()), "{names:?}");
    }

    #[test]
    fn aggregates() {
        let d = bib();
        assert_eq!(run(&d, "count(doc()//book)"), vec!["4"]);
        assert_eq!(run(&d, "min(doc()//price)"), vec!["39.95"]);
        assert_eq!(run(&d, "max(doc()//price)"), vec!["129.95"]);
        assert_eq!(run(&d, "sum(doc()//year)"), vec!["7985"]);
        assert_eq!(run(&d, "avg(doc()//year)"), vec!["1996.25"]);
    }

    #[test]
    fn aggregate_of_empty_sequences() {
        let d = bib();
        assert_eq!(run(&d, "count(doc()//nothing)"), vec!["0"]);
        assert!(run(&d, "min(doc()//nothing)").is_empty());
        assert!(run(&d, "avg(doc()//nothing)").is_empty());
        assert_eq!(run(&d, "sum(doc()//nothing)"), vec!["0"]);
    }

    #[test]
    fn a_computed_nan_equals_no_number() {
        assert_eq!(run(&bib(), r#"number("x") = 5"#), vec!["false"]);
    }

    #[test]
    fn a_computed_nan_differs_from_every_number() {
        assert_eq!(run(&bib(), r#"number("x") != 5"#), vec!["true"]);
    }

    #[test]
    fn a_where_clause_over_computed_nans_keeps_nothing() {
        let out = run(
            &bib(),
            "for $t in doc()//title where number($t) = 5 return $t",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn numeric_comparison_on_attribute_years() {
        let d = bib();
        let out = run(
            &d,
            "for $b in doc()//book where $b/year > 1991 return $b/title",
        );
        assert_eq!(out.len(), 4); // 1994, 1992, 2000, 1999 all qualify
    }

    #[test]
    fn order_by_ascending_and_descending() {
        let d = bib();
        let asc = run(
            &d,
            "for $b in doc()//book order by $b/title return $b/title",
        );
        let mut sorted = asc.clone();
        sorted.sort();
        assert_eq!(asc, sorted);
        let desc = run(
            &d,
            "for $b in doc()//book order by $b/title descending return $b/title",
        );
        let mut rev = desc.clone();
        rev.sort();
        rev.reverse();
        assert_eq!(desc, rev);
    }

    #[test]
    fn order_by_numeric_key() {
        let d = bib();
        let out = run(
            &d,
            "for $b in doc()//book order by $b/price return $b/price",
        );
        assert_eq!(out, vec!["39.95", "65.95", "65.95", "129.95"]);
    }

    #[test]
    fn quantifier_some() {
        let d = bib();
        let out = run(
            &d,
            "for $b in doc()//book \
             where some $a in $b/author satisfies contains($a/last, \"Suciu\") \
             return $b/title",
        );
        assert_eq!(out, vec!["Data on the Web"]);
    }

    #[test]
    fn quantifier_every() {
        let d = bib();
        let out = run(
            &d,
            "for $b in doc()//book \
             where every $a in $b/author satisfies contains($a/last, \"Stevens\") \
             return $b/title",
        );
        // Books with no authors vacuously satisfy `every`.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn let_binds_whole_sequence() {
        let d = bib();
        let out = run(
            &d,
            "for $b in doc()//book let $a := $b/author \
             where count($a) >= 2 return $b/title",
        );
        assert_eq!(out, vec!["Data on the Web"]);
    }

    #[test]
    fn nested_flwor_grouping() {
        // Min price per book title — the XMP Q10 shape.
        let d = bib();
        let out = run(
            &d,
            "for $b in doc()//book \
             let $p := { for $b2 in doc()//book where $b2/title = $b/title return $b2/price } \
             return element minprice { $b/title, min($p) }",
        );
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn element_constructor_flattens_to_string() {
        let d = bib();
        let e = Engine::new(d.clone());
        let out = e
            .run("for $b in doc()//book where $b/year = 1994 return element r { $b/title }")
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(e.item_string(&out[0]), "TCP/IP Illustrated");
    }

    #[test]
    fn string_functions() {
        let d = bib();
        assert_eq!(
            run(
                &d,
                "for $t in doc()//title where starts-with($t, \"Data\") return $t"
            ),
            vec!["Data on the Web"]
        );
        assert_eq!(
            run(
                &d,
                "for $t in doc()//title where ends-with($t, \"Illustrated\") return $t"
            ),
            vec!["TCP/IP Illustrated"]
        );
        assert_eq!(run(&d, "string-length(\"abc\")"), vec!["3"]);
        assert_eq!(run(&d, "concat(\"a\", \"b\", \"c\")"), vec!["abc"]);
    }

    #[test]
    fn distinct_values_dedups() {
        let d = bib();
        let out = run(&d, "distinct-values(doc()//price)");
        assert_eq!(out.len(), 3); // 65.95 repeats
    }

    #[test]
    fn empty_and_exists() {
        let d = bib();
        assert_eq!(run(&d, "empty(doc()//nothing)"), vec!["true"]);
        assert_eq!(run(&d, "exists(doc()//book)"), vec!["true"]);
    }

    #[test]
    fn name_function() {
        let d = bib();
        let out = run(
            &d,
            "for $e in doc()//book/* where ends-with(name($e), \"or\") return name($e)",
        );
        // author × 5 (incl. three on one book) and editor × 1
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn disjunctive_name_test_runs() {
        let d = bib();
        let out = run(&d, "for $x in doc()//(author|editor) return $x/last");
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn wildcard_child_step() {
        let d = bib();
        let out = run(
            &d,
            "for $b in doc()//book where $b/year = 1994 return count($b/*)",
        );
        // title, author, publisher, price + the year attribute = 5
        assert_eq!(out, vec!["5"]);
    }

    #[test]
    fn unbound_variable_errors() {
        let d = bib();
        let e = Engine::new(d.clone());
        let err = e.run("for $b in doc()//book return $nope").unwrap_err();
        assert!(matches!(err, EvalError::UnboundVariable(v) if v == "nope"));
    }

    #[test]
    fn path_on_string_errors() {
        let d = bib();
        let e = Engine::new(d.clone());
        let err = e
            .run("for $b in doc()//book let $s := \"x\" where $s/title = 1 return $b")
            .unwrap_err();
        assert!(matches!(err, EvalError::TypeError(_)));
    }

    #[test]
    fn unknown_function_errors() {
        let d = bib();
        let e = Engine::new(d.clone());
        let err = e.run("frobnicate(doc()//book)").unwrap_err();
        assert!(matches!(err, EvalError::UnknownFunction(_)));
    }

    #[test]
    fn wrong_arity_errors() {
        let d = bib();
        let e = Engine::new(d.clone());
        let err = e.run("contains(\"a\")").unwrap_err();
        assert!(matches!(err, EvalError::WrongArity { .. }));
    }

    #[test]
    fn negation() {
        let d = bib();
        let out = run(
            &d,
            "for $b in doc()//book where not($b/publisher = \"Addison-Wesley\") return $b/title",
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn general_comparison_is_existential() {
        let d = bib();
        // book with *some* author whose last name is Buneman
        let out = run(
            &d,
            "for $b in doc()//book where $b/author/last = \"Buneman\" return $b/title",
        );
        assert_eq!(out, vec!["Data on the Web"]);
    }

    #[test]
    fn value_join_across_entries() {
        let d = bib();
        // pairs of books with the same publisher but different titles
        let out = run(
            &d,
            "for $a in doc()//book, $b in doc()//book \
             where $a/publisher = $b/publisher and not($a/title = $b/title) \
             return $a/title",
        );
        assert_eq!(out.len(), 2); // the two Addison-Wesley books, both directions
    }

    #[test]
    fn path_results_deduplicated_in_doc_order() {
        let d = movies();
        // both year elements contain movies; //title from doc visits each once
        let out = run(&d, "for $t in doc()//title return $t");
        let mut dedup = out.clone();
        dedup.dedup();
        assert_eq!(out.len(), dedup.len());
    }
}
