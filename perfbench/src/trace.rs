//! The traced run: the same warm-up and timed sequence replayed
//! in-process on an identical corpus, with spans recorded on the
//! benchmark side around every call into a layer's public functions.
//!
//! Reads are timed in pipeline order — `nlparser::parse`,
//! `nalix::classify::classify`, `nalix::validate::validate`,
//! `nalix::translate::translate`, then `Nalix::execute_with_budget` or
//! `nalix::backend::sql::lower` followed by `sqlq::execute` — and the
//! reply's JSON rendering. Dialogue turns go through
//! `Nalix::answer_turn_on` as one span. A translation memo keyed like
//! nalix's cache (backend and sentence; parse failures are not
//! memoised; every commit empties it) reproduces the server's cache
//! behaviour, so a hit records no front-half spans.
//!
//! Writes are timed as `Document::begin_update`, `PendingUpdate::apply`,
//! `PendingUpdate::commit` and `Nalix::successor`; the two calls inside
//! the successor that can dominate it, `Catalog::apply_update` and
//! `Shredding::successor`, are re-measured on copies right after.
//!
//! Spans (name, start, end, parent, request id) stay in memory until the
//! run ends. A second, untraced replay of the same sequence calls the
//! whole path per request — `DocumentStore::get` plus
//! `Nalix::answer_full_on` (or `answer_turn_on`) and rendering for
//! reads, `DocumentStore::update` for writes. The traced requests' self
//! times must sum to the untraced total within [`SUM_ERROR`]; the
//! difference is the tracing overhead.

use crate::oracle::{check, Oracle, Verdict};
use crate::report::{median, parse_prometheus, Metric};
use crate::workload::{self, Op, Plan, Query, DOC_NAME};
use nalix::catalog::Catalog;
use nalix::{
    BackendKind, EvalBudget, Feedback, FeedbackKind, Nalix, Outcome, PriorTurn, QueryError,
    Rejected, Translated,
};
use server::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use store::{DocSpec, DocumentStore, StoreConfig};
use xmldb::Document;

/// Stated error between the traced requests' summed self time and the
/// untraced whole-path time of the same requests.
pub const SUM_ERROR: f64 = 0.10;
/// Stated error between a stage's in-process span time and the server's
/// `/metrics` sum for it (separate processes, separate runs).
pub const SCRAPE_ERROR: f64 = 0.25;

/// What the HTTP run observed that the per-layer report needs.
pub struct Observed<'a> {
    /// Client latency of every timed operation, in sequence order: its
    /// median over the passes.
    pub http_latency: &'a [f64],
    /// The one `/metrics` scrape, taken after the last pass's timed region.
    pub metrics_text: &'a str,
    /// Share of answered timed requests whose reply said `cached`.
    pub cached_frac: f64,
    /// Mean reply body size of timed requests, KiB.
    pub response_kb: f64,
    /// Server peak RSS growth over a pass's timed region per commit, MB
    /// (median over the passes).
    pub rss_mb_per_commit: f64,
    /// Cores available.
    pub cpus: usize,
    /// Host CPU steal share over a pass's timed region, median over the
    /// passes.
    pub steal_frac: f64,
}

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: usize,
    timed: bool,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
    timed: bool,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            timed: false,
        }
    }

    fn begin(&mut self, name: &'static str) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            request: self.request,
            timed: self.timed,
        });
        self.open.push(idx);
    }

    fn end(&mut self) {
        let idx = self.open.pop().expect("span ends match begins");
        self.spans[idx].end = self.epoch.elapsed();
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Per span name: (self seconds, count), over timed or all spans.
    fn self_times(&self, timed_only: bool) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            if timed_only && !s.timed {
                continue;
            }
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += (s.end - s.start).saturating_sub(c).as_secs_f64();
            e.1 += 1;
        }
        out
    }

    /// Per span name: (total seconds, count) over all spans.
    fn totals(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += (s.end - s.start).as_secs_f64();
            e.1 += 1;
        }
        out
    }

    /// Duration of every timed root span, by request id.
    fn roots(&self) -> HashMap<usize, f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.timed)
            .map(|s| (s.request, (s.end - s.start).as_secs_f64()))
            .collect()
    }
}

/// The budget `nalixd` gives a request without `deadline_ms`.
fn server_budget() -> EvalBudget {
    EvalBudget::default().with_time_limit(Duration::from_secs(2))
}

fn error_body(err: &QueryError) -> String {
    Json::Obj(vec![(
        "error".to_string(),
        Json::Obj(vec![
            ("code".to_string(), Json::Str(err.code().to_string())),
            ("message".to_string(), Json::Str(err.to_string())),
            (
                "suggestion".to_string(),
                Json::Str(err.suggestion().to_string()),
            ),
        ]),
    )])
    .render()
}

/// The body `nalixd` renders for an answer.
fn answer_body(
    values: &[String],
    text: &str,
    backend: BackendKind,
    cached: bool,
    warnings: &[Feedback],
    generation: u64,
    session: Option<(&str, u32)>,
) -> String {
    let mut fields = vec![
        (
            "answers".to_string(),
            Json::Arr(values.iter().cloned().map(Json::Str).collect()),
        ),
        ("count".to_string(), Json::Num(values.len() as f64)),
        ("xquery".to_string(), Json::Str(text.to_string())),
        ("backend".to_string(), Json::Str(backend.name().to_string())),
        ("cached".to_string(), Json::Bool(cached)),
        (
            "warnings".to_string(),
            Json::Arr(warnings.iter().map(|w| Json::Str(w.message())).collect()),
        ),
        ("doc".to_string(), Json::Str(DOC_NAME.to_string())),
        ("generation".to_string(), Json::Num(generation as f64)),
    ];
    if let Some((id, turn)) = session {
        fields.push(("session".to_string(), Json::Str(id.to_string())));
        fields.push(("turn".to_string(), Json::Num(f64::from(turn))));
    }
    Json::Obj(fields).render()
}

fn update_body(generation: u64) -> String {
    Json::Obj(vec![
        ("doc".to_string(), Json::Str(DOC_NAME.to_string())),
        ("generation".to_string(), Json::Num(generation as f64)),
    ])
    .render()
}

/// Counters of the traced replay.
#[derive(Default)]
struct Counts {
    parse_errors: u64,
    validate_refused: u64,
    xquery_budget: u64,
    sqlq_tuples: u64,
    sqlq_budget: u64,
    commits: u64,
    patches: u64,
    catalog_apply_s: f64,
    shred_successor_s: f64,
    shred_build_s: f64,
    shred_rss_mb: f64,
    xquery_tuples: u64,
    shard_spawns: u64,
}

/// A committed batch: the replaced pipeline, the new document, the stats.
type Commit = Option<(Nalix, std::sync::Arc<Document>, xmldb::UpdateStats)>;

/// Pass A: the instrumented replay.
struct Traced<'a> {
    nalix: Nalix,
    memo: HashMap<(BackendKind, String), Outcome>,
    sessions: HashMap<String, PriorTurn>,
    generation: u64,
    shredded: bool,
    counts: Counts,
    /// `Nalix::metrics()` counters already folded into `counts`.
    folded: obs::MetricsSnapshot,
    oracle: &'a Oracle,
    mismatches: Vec<String>,
}

impl Traced<'_> {
    /// Fold the engine counters `now` (of the pipeline that recorded
    /// `self.folded`) into `counts`.
    fn fold(&mut self, now: obs::MetricsSnapshot) {
        let delta = |c: obs::Counter| now.counter(c) - self.folded.counter(c);
        self.counts.xquery_tuples += delta(obs::Counter::EvalTuples);
        self.counts.shard_spawns += delta(obs::Counter::EvalShardSpawns);
        self.folded = now;
    }

    fn fold_metrics(&mut self) {
        let now = self.nalix.metrics();
        self.fold(now);
    }

    fn op(&mut self, t: &mut Tracer, op: &Op) {
        let (status, body) = match op {
            Op::Query(q) => {
                t.begin("request");
                let reply = self.read(t, q);
                t.end();
                reply
            }
            Op::Update(u) => {
                t.begin("write");
                let (reply, committed) = self.write(t, &u.edits);
                t.end();
                if let Some((prior, next, stats)) = committed {
                    self.after_commit(prior, &next, &stats);
                }
                reply
            }
        };
        if let Verdict::Failed(why) = check(op, self.oracle, 1, status, &body) {
            self.mismatches.push(why);
        }
    }

    fn read(&mut self, t: &mut Tracer, q: &Query) -> (u16, String) {
        let budget = server_budget();
        let backend = q.backend;
        if let Some(turn) = &q.session {
            let prior = self.sessions.get(&turn.id).cloned();
            let nalix = &self.nalix;
            let r = t.time("nalix.session", || {
                nalix.answer_turn_on(backend, &q.text, prior.as_ref(), &budget)
            });
            let gen = self.generation;
            return match r {
                Ok(ta) => {
                    let body = t.time("server.json", || {
                        answer_body(
                            &ta.answer.values,
                            &ta.answer.xquery,
                            backend,
                            ta.answer.cached,
                            &ta.answer.warnings,
                            gen,
                            Some((&turn.id, turn.number)),
                        )
                    });
                    self.sessions.insert(turn.id.clone(), ta.turn);
                    (200, body)
                }
                Err(e) => (422, t.time("server.json", || error_body(&e))),
            };
        }
        if let Some(verb) = nalix::detect_update_intent(&q.text) {
            let e = QueryError::update_intent(verb);
            return (422, t.time("server.json", || error_body(&e)));
        }
        let key = (backend, q.text.clone());
        let (outcome, cached) = match self.memo.get(&key) {
            Some(o) => (o.clone(), true),
            None => match self.translate(t, &q.text) {
                Ok(o) => {
                    self.memo.insert(key, o.clone());
                    (o, false)
                }
                Err(e) => return (422, t.time("server.json", || error_body(&e))),
            },
        };
        let tr = match outcome {
            Outcome::Translated(tr) => tr,
            Outcome::Rejected(r) => {
                let e = QueryError::from(r);
                return (422, t.time("server.json", || error_body(&e)));
            }
        };
        let evaluated = match backend {
            BackendKind::Xquery => self.eval_xquery(t, &tr, &budget),
            BackendKind::Sql => self.eval_sql(t, &tr, &budget),
        };
        let gen = self.generation;
        match evaluated {
            Ok((values, text)) => {
                // Rendering includes pretty-printing the compiled query,
                // as the reply carries it.
                let body = t.time("server.json", || {
                    let text = match backend {
                        BackendKind::Xquery => xquery::pretty::pretty(&tr.translation.query),
                        BackendKind::Sql => text,
                    };
                    answer_body(&values, &text, backend, cached, &tr.warnings, gen, None)
                });
                (200, body)
            }
            Err(e) => (422, t.time("server.json", || error_body(&e))),
        }
    }

    /// Parse → classify → validate → translate, as `Nalix::query_uncached`.
    fn translate(&mut self, t: &mut Tracer, text: &str) -> Result<Outcome, QueryError> {
        let dep = match t.time("nlparser.parse", || nlparser::parse(text)) {
            Ok(d) => d,
            Err(e) => {
                self.counts.parse_errors += 1;
                return Err(e.into());
            }
        };
        let classified = t.time("nalix.classify", || nalix::classify::classify(&dep));
        let catalog = self.nalix.catalog();
        let validation = t.time("nalix.validate", || {
            nalix::validate::validate(classified, catalog)
        });
        let warnings: Vec<Feedback> = validation.warnings().into_iter().cloned().collect();
        if !validation.is_valid() {
            self.counts.validate_refused += 1;
            let errors = validation.errors().into_iter().cloned().collect();
            return Ok(Outcome::Rejected(Rejected { errors, warnings }));
        }
        Ok(
            match t.time("nalix.translate", || {
                nalix::translate::translate(&validation.tree)
            }) {
                Ok(translation) => Outcome::Translated(Box::new(Translated {
                    translation,
                    warnings,
                    tree: validation.tree,
                })),
                Err(e) => Outcome::Rejected(Rejected {
                    errors: vec![Feedback::error(FeedbackKind::GrammarViolation {
                        detail: e.message,
                    })],
                    warnings,
                }),
            },
        )
    }

    fn eval_xquery(
        &mut self,
        t: &mut Tracer,
        tr: &Translated,
        budget: &EvalBudget,
    ) -> Result<(Vec<String>, String), QueryError> {
        let nalix = &self.nalix;
        let seq = t.time("xquery.eval", || {
            nalix
                .execute_with_budget(tr, budget)
                .map(|seq| seq.iter().map(|i| i.string_value(nalix.doc())).collect())
        });
        match seq {
            Ok(values) => Ok((values, String::new())),
            Err(e) => {
                let e = QueryError::from(e);
                if e.code().starts_with("budget.") {
                    self.counts.xquery_budget += 1;
                }
                Err(e)
            }
        }
    }

    fn eval_sql(
        &mut self,
        t: &mut Tracer,
        tr: &Translated,
        budget: &EvalBudget,
    ) -> Result<(Vec<String>, String), QueryError> {
        let q = match t.time("sql.lower", || nalix::backend::sql::lower(&tr.translation)) {
            Ok(q) => q,
            Err(e) => {
                return Err(QueryError::Translate {
                    message: e.message,
                    suggestion: "The question uses a construct the SQL backend cannot compile."
                        .to_string(),
                })
            }
        };
        if !self.shredded {
            let rss0 = crate::host::status_mb(std::process::id(), "VmRSS").unwrap_or(0.0);
            let start = Instant::now();
            let nalix = &self.nalix;
            t.time("relstore.build", || drop(nalix.shredding()));
            self.counts.shred_build_s += start.elapsed().as_secs_f64();
            self.counts.shred_rss_mb =
                crate::host::status_mb(std::process::id(), "VmRSS").unwrap_or(0.0) - rss0;
            self.shredded = true;
        }
        let shred = self.nalix.shredding();
        let limits = sqlq::ExecLimits {
            max_tuples: Some(budget.max_tuples as u64),
        };
        match t.time("sqlq.execute", || sqlq::execute(&shred, &q, &limits)) {
            Ok(out) => {
                self.counts.sqlq_tuples += out.tuples();
                Ok((out.strings(&shred), sqlq::pretty(&q)))
            }
            Err(e @ sqlq::SqlError::Budget(limit)) => {
                self.counts.sqlq_tuples += limit;
                self.counts.sqlq_budget += 1;
                Err(QueryError::ResourceExhausted {
                    resource: nalix::ExhaustedResource::Tuples,
                    message: e.to_string(),
                    suggestion: "Please add a condition that narrows the search.".to_string(),
                })
            }
            Err(e) => Err(QueryError::Eval {
                message: e.to_string(),
                suggestion: "Please rephrase the question more simply.".to_string(),
            }),
        }
    }

    /// Apply one batch as the store does; on success also return the
    /// replaced pipeline and the commit, for [`Traced::after_commit`].
    fn write(&mut self, t: &mut Tracer, edits: &[store::EditSpec]) -> ((u16, String), Commit) {
        let rejected = || ((400, "{}".to_string()), None);
        let doc = self.nalix.doc_handle();
        let Ok(mut pending) = t.time("xmldb.begin_update", || doc.begin_update()) else {
            return rejected();
        };
        for spec in edits {
            let Ok(edit) = t.time("store.resolve", || workload::resolve(spec, &doc)) else {
                return rejected();
            };
            if t.time("xmldb.apply", || pending.apply(&edit)).is_err() {
                return rejected();
            }
        }
        let (next, stats) = t.time("xmldb.commit", || pending.commit());
        let next = std::sync::Arc::new(next);
        let prior = &self.nalix;
        let successor = t.time("nalix.successor", || {
            Nalix::successor(prior, next.clone(), &stats)
        });
        self.generation += 1;
        let gen = self.generation;
        let body = t.time("server.json", || update_body(gen));
        self.memo.clear();
        // The store parks the replaced pipeline instead of dropping it
        // on the request path; so does the replay.
        let prior = std::mem::replace(&mut self.nalix, successor);
        ((200, body), Some((prior, next, stats)))
    }

    /// Outside the span tree, after a commit: re-measure the successor's
    /// two dominant inner calls on copies, fold the replaced pipeline's
    /// counters, and drop it.
    fn after_commit(&mut self, prior: Nalix, next: &Document, stats: &xmldb::UpdateStats) {
        let mut catalog: Catalog = prior.catalog().clone();
        let start = Instant::now();
        catalog.apply_update(next, stats);
        self.counts.catalog_apply_s += start.elapsed().as_secs_f64();
        if self.shredded {
            let shred = prior.shredding();
            let start = Instant::now();
            drop(shred.successor(next, stats));
            self.counts.shred_successor_s += start.elapsed().as_secs_f64();
        }
        self.counts.commits += 1;
        self.counts.patches += u64::from(stats.strategy == xmldb::CommitStrategy::Patch);
        self.fold(prior.metrics());
        // The successor records into a fresh registry.
        self.folded = obs::MetricsSnapshot::new();
    }
}

/// Pass B: the untraced whole path, as the server's handlers call it.
struct Untraced {
    store: DocumentStore,
    sessions: HashMap<String, PriorTurn>,
}

impl Untraced {
    fn new(doc: Document) -> Result<Untraced, String> {
        let store = DocumentStore::new(StoreConfig {
            default_doc: DOC_NAME.to_string(),
            max_resident: 8,
            cache_capacity: nalix::DEFAULT_CACHE_CAPACITY,
        });
        store
            .put(DOC_NAME, DocSpec::memory(DOC_NAME, doc))
            .map_err(|e| e.to_string())?;
        Ok(Untraced {
            store,
            sessions: HashMap::new(),
        })
    }

    /// Run `op`; returns the seconds its whole-path call took.
    fn op(&mut self, op: &Op) -> Result<f64, String> {
        let start = Instant::now();
        match op {
            Op::Query(q) => {
                let p = self.store.get(None).map_err(|e| e.to_string())?;
                let budget = server_budget();
                let body = if let Some(turn) = &q.session {
                    let prior = self.sessions.get(&turn.id);
                    match p.nalix().answer_turn_on(q.backend, &q.text, prior, &budget) {
                        Ok(ta) => {
                            let body = answer_body(
                                &ta.answer.values,
                                &ta.answer.xquery,
                                q.backend,
                                ta.answer.cached,
                                &ta.answer.warnings,
                                p.generation(),
                                Some((&turn.id, turn.number)),
                            );
                            self.sessions.insert(turn.id.clone(), ta.turn);
                            body
                        }
                        Err(e) => error_body(&e),
                    }
                } else {
                    match p.nalix().answer_full_on(q.backend, &q.text, &budget) {
                        Ok(a) => answer_body(
                            &a.values,
                            &a.xquery,
                            a.backend,
                            a.cached,
                            &a.warnings,
                            p.generation(),
                            None,
                        ),
                        Err(e) => error_body(&e),
                    }
                };
                std::hint::black_box(body);
                Ok(start.elapsed().as_secs_f64())
            }
            Op::Update(u) => {
                let r = self
                    .store
                    .update(None, &u.edits, None)
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(update_body(r.pipeline.generation()));
                let took = start.elapsed().as_secs_f64();
                // Fold retired generations so the replay's memory stays
                // flat (outside the timed call; the server keeps them).
                let _ = self.store.snapshot();
                Ok(took)
            }
        }
    }
}

/// Run both replays, interleaved request by request so drift in host
/// speed affects both alike, and return the per-layer metrics.
pub fn run(plan: &Plan, oracle: &Oracle, observed: &Observed) -> Result<Vec<Metric>, String> {
    let start = Instant::now();
    let doc = Document::parse_str(&plan.xml).map_err(|e| e.to_string())?;
    let parse_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    drop(std::hint::black_box(Catalog::build(&doc)));
    let catalog_s = start.elapsed().as_secs_f64();

    let mut b = Untraced::new(doc.clone())?;
    let mut tracer = Tracer::new();
    let mut a = Traced {
        nalix: Nalix::new(doc),
        memo: HashMap::new(),
        sessions: HashMap::new(),
        generation: 1,
        shredded: false,
        counts: Counts::default(),
        folded: obs::MetricsSnapshot::new(),
        oracle,
        mismatches: Vec::new(),
    };
    for op in &plan.warmup {
        tracer.request += 1;
        a.op(&mut tracer, op);
        b.op(op)?;
    }
    // Count the timed region only; the shredding is built in warm-up.
    a.fold_metrics();
    a.counts = Counts {
        shred_build_s: a.counts.shred_build_s,
        shred_rss_mb: a.counts.shred_rss_mb,
        ..Counts::default()
    };
    tracer.timed = true;
    let mut untraced = Vec::with_capacity(plan.traced().len());
    for (i, op) in plan.traced().iter().enumerate() {
        tracer.request = i;
        a.op(&mut tracer, op);
        untraced.push(b.op(op)?);
    }
    a.fold_metrics();
    report(plan, observed, &tracer, &a, &untraced, parse_s, catalog_s)
}

#[allow(clippy::too_many_arguments)]
fn report(
    plan: &Plan,
    observed: &Observed,
    tracer: &Tracer,
    a: &Traced,
    untraced: &[f64],
    parse_s: f64,
    catalog_s: f64,
) -> Result<Vec<Metric>, String> {
    let timed = tracer.self_times(true);
    // Leaf stages compare by self time; a write compares as a whole.
    let mut all = tracer.self_times(false);
    if let Some(w) = tracer.totals().get("write") {
        all.insert("write", *w);
    }
    let ms = |name: &str| timed.get(name).map_or(0.0, |v| v.0 * 1e3);
    let count = |name: &str| timed.get(name).map_or(0, |v| v.1);
    let roots = tracer.roots();
    let traced_total: f64 = roots.values().sum();
    let untraced_total: f64 = untraced.iter().sum();
    let sum_err = (traced_total - untraced_total) / untraced_total.max(1e-9);
    let overhead: Vec<f64> = plan
        .traced()
        .iter()
        .zip(observed.http_latency.iter().zip(untraced))
        .filter(|(op, _)| matches!(op, Op::Query(_)))
        .map(|(_, (http, inproc))| http - inproc)
        .collect();
    let c = &a.counts;
    let json_n = count("server.json").max(1);
    let scraped = parse_prometheus(observed.metrics_text);
    let counter = |name: &str| {
        scraped
            .get(&format!("nalix_{name}_total"))
            .copied()
            .unwrap_or(0.0)
    };

    println!("per-layer (traced in-process replay, timed region):");
    println!("  {:<22} {:>12} {:>8}", "span", "self ms", "count");
    for (name, (s, n)) in &timed {
        println!("  {name:<22} {:>12.3} {n:>8}", s * 1e3);
    }
    println!(
        "sum check: traced self times {:.3} ms vs untraced whole-path calls {:.3} ms over {} ops: {:+.2}% (stated error ±{:.0}%){}",
        traced_total * 1e3,
        untraced_total * 1e3,
        plan.traced().len(),
        100.0 * sum_err,
        100.0 * SUM_ERROR,
        if sum_err.abs() > SUM_ERROR { "  EXCEEDED" } else { "" }
    );
    if !a.mismatches.is_empty() {
        println!(
            "replay disagrees with the oracle on {} requests, e.g. {}",
            a.mismatches.len(),
            a.mismatches[0]
        );
    }
    println!(
        "server /metrics (one scrape after the last pass's timed region) vs traced spans (warm-up + timed):"
    );
    let sessions = plan
        .warmup
        .iter()
        .chain(plan.traced())
        .filter(|op| matches!(op, Op::Query(q) if q.session.is_some()))
        .count();
    for (stage, span) in [
        ("parse", "nlparser.parse"),
        ("classify", "nalix.classify"),
        ("validate", "nalix.validate"),
        ("translate", "nalix.translate"),
        ("eval", "xquery.eval"),
        ("sql_translate", "sql.lower"),
        ("sql_eval", "sqlq.execute"),
        ("store_update", "write"),
    ] {
        let s_sum = scraped
            .get(&format!(
                "nalix_stage_duration_seconds_sum{{stage=\"{stage}\"}}"
            ))
            .copied()
            .unwrap_or(0.0);
        let s_n = scraped
            .get(&format!(
                "nalix_stage_duration_seconds_count{{stage=\"{stage}\"}}"
            ))
            .copied()
            .unwrap_or(0.0) as usize;
        let (t_sum, t_n) = all.get(span).copied().unwrap_or((0.0, 0));
        if s_n == 0 && t_n == 0 {
            continue;
        }
        // Dialogue turns run these stages inside one opaque span.
        let count_off = s_n.abs_diff(t_n) > sessions;
        let sum_off =
            (s_sum - t_sum).abs() > SCRAPE_ERROR * s_sum.max(t_sum) && s_sum.max(t_sum) > 0.01;
        println!(
            "  {stage:<14} server {s_n:>7} runs {:>10.3} ms | traced {t_n:>7} spans {:>10.3} ms{}",
            s_sum * 1e3,
            t_sum * 1e3,
            if count_off || sum_off {
                "  DISAGREE"
            } else {
                ""
            }
        );
    }
    println!(
        "  counters: cache hits {} evictions {} eval_shard_spawns {} sql_tuples {} index_patches {}",
        scraped.get("nalix_cache_hits_total").copied().unwrap_or(0.0),
        counter("cache_evictions"),
        counter("eval_shard_spawns"),
        counter("sql_tuples"),
        counter("index_patches"),
    );

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    Ok(vec![
        m("parse.busy_ms", ms("nlparser.parse"), "ms"),
        m("parse.errors", c.parse_errors as f64, "count"),
        m("classify.busy_ms", ms("nalix.classify"), "ms"),
        m("validate.busy_ms", ms("nalix.validate"), "ms"),
        m("validate.refused", c.validate_refused as f64, "count"),
        m("translate.busy_ms", ms("nalix.translate"), "ms"),
        m("cache.hit_frac", observed.cached_frac, "frac"),
        m("cache.evictions", counter("cache_evictions"), "count"),
        m("session.busy_ms", ms("nalix.session"), "ms"),
        m("xquery.busy_ms", ms("xquery.eval"), "ms"),
        m("xquery.tuples", c.xquery_tuples as f64, "count"),
        m("xquery.shard_spawns", c.shard_spawns as f64, "count"),
        m("xquery.budget_refusals", c.xquery_budget as f64, "count"),
        m("sql.lower_busy_ms", ms("sql.lower"), "ms"),
        m("sqlq.busy_ms", ms("sqlq.execute"), "ms"),
        m("sqlq.tuples", c.sqlq_tuples as f64, "count"),
        m("sqlq.budget_refusals", c.sqlq_budget as f64, "count"),
        m("relstore.build_ms", c.shred_build_s * 1e3, "ms"),
        m("relstore.successor_ms", c.shred_successor_s * 1e3, "ms"),
        m("relstore.rss_mb", c.shred_rss_mb, "MB"),
        m("xmldb.parse_ms", parse_s * 1e3, "ms"),
        m("xmldb.commit_ms", ms("xmldb.commit"), "ms"),
        m(
            "xmldb.patch_frac",
            c.patches as f64 / c.commits.max(1) as f64,
            "frac",
        ),
        m("catalog.build_ms", catalog_s * 1e3, "ms"),
        m("catalog.apply_update_ms", c.catalog_apply_s * 1e3, "ms"),
        m("nalix.successor_ms", ms("nalix.successor"), "ms"),
        m(
            "store.update_ms",
            plan.traced()
                .iter()
                .zip(untraced)
                .filter(|(op, _)| matches!(op, Op::Update(_)))
                .map(|(_, s)| s * 1e3)
                .sum::<f64>()
                + 0.0,
            "ms",
        ),
        m("store.rss_mb_per_commit", observed.rss_mb_per_commit, "MB"),
        m("server.overhead_ms", median(&overhead) * 1e3, "ms"),
        m(
            "server.json_us",
            ms("server.json") * 1e3 / json_n as f64,
            "us",
        ),
        m("server.response_kb", observed.response_kb, "KiB"),
        m("trace.overhead_frac", sum_err, "frac"),
        m("host.cpus", observed.cpus as f64, "count"),
        m("host.steal_frac", observed.steal_frac, "frac"),
    ])
}
