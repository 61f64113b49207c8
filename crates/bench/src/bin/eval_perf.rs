//! Evaluation-core performance trajectory: measure, record, gate.
//!
//! This binary is the keeper of `BENCH_EVAL.json` at the repository
//! root — the persisted before/after record of evaluation-core
//! performance that every optimisation PR appends to and that CI gates
//! regressions against.
//!
//! Three workloads exercise the three hot shapes of the evaluator:
//!
//! - `value-scan` — a full scan of every `title` with an atomized
//!   equality test: the linear value-sweep shape.
//! - `selection` — the paper's Q1 selection (`publisher = …`,
//!   `year > …`) with child-axis walks per candidate.
//! - `mqf-join` — a schema-free join of every title against every
//!   author via `mqf()`: MLCA probes plus indexed partner enumeration.
//!
//! A fourth row, `update-patch`, measures the write path: a two-edit
//! node-level update batch committed through the incremental
//! index-maintenance path (snapshot clone + overlay commit + index
//! splice), asserting the patch strategy is what actually ran.
//!
//! Two further rows, `selection-sql` and `mqf-join-sql`, run the same
//! selection and schema-free-join plans through the SQL backend's
//! executor over the document's relational view (docs/BACKENDS.md), so the
//! two backends' evaluation cores are tracked side by side on
//! identical logical queries.
//!
//! Corpus modes: `--quick` runs the paper-scale corpus (~73k nodes,
//! the CI mode); the default is the 100×-scale "mega" corpus
//! (~7.3M nodes) used for the headline before/after records.
//!
//! ```console
//! $ cargo run --release -p bench --bin eval_perf -- --quick
//! $ cargo run --release -p bench --bin eval_perf -- --record post-soa
//! $ cargo run --release -p bench --bin eval_perf -- --quick --check
//! ```
//!
//! `--record <phase>` appends a record; `--check` compares the current
//! run against the most recent committed record for the same corpus
//! mode and exits non-zero on a >15% throughput or p99 regression
//! (with a small absolute floor so micro-jitter on millisecond-scale
//! queries does not flake the gate).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use server::json::Json;
use xmldb::datasets::dblp::{generate, DblpConfig};
use xmldb::{CommitStrategy, Document, Edit, NewNode};
use xquery::{Engine, EvalBudget};

/// Relative regression tolerance for `--check` (issue-mandated 15%).
const TOLERANCE: f64 = 0.15;
/// Absolute p99 slack in milliseconds, so a 0.4ms→0.5ms wobble on the
/// quick corpus does not fail the gate.
const P99_SLACK_MS: f64 = 5.0;
/// Absolute mean slack in milliseconds for the throughput gate: a
/// workload in the microsecond range (value-scan answers in ~2µs on
/// the quick corpus) swings far past 15% from timer resolution and
/// scheduling noise alone, so a throughput failure also requires the
/// mean to have moved by a humanly meaningful amount.
const MEAN_SLACK_MS: f64 = 0.05;

/// The named workloads. Each is `(name, query, mega_iters, quick_iters)`.
const WORKLOADS: [(&str, &str, usize, usize); 3] = [
    (
        "value-scan",
        r#"for $t in doc()//title where $t = "Data on the Web" return $t"#,
        6,
        40,
    ),
    (
        "selection",
        r#"for $b in doc()//book where $b/publisher = "Addison-Wesley" and $b/year > 1991 return ($b/title, $b/year)"#,
        6,
        40,
    ),
    (
        "mqf-join",
        r#"for $t in doc()//title, $a in doc()//author where mqf($t, $a) return $t"#,
        4,
        40,
    ),
];

struct Args {
    quick: bool,
    record: Option<String>,
    check: bool,
    shards: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        record: None,
        check: false,
        shards: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--record" => {
                args.record = Some(it.next().ok_or("--record needs a phase label")?);
            }
            "--shards" => {
                args.shards = it
                    .next()
                    .ok_or("--shards needs a count")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

struct Measurement {
    name: &'static str,
    iters: usize,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    qps: f64,
    results: usize,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).ceil() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

fn measure(
    engine: &Engine,
    budget: &EvalBudget,
    name: &'static str,
    query: &str,
    iters: usize,
) -> Result<Measurement, String> {
    // One warmup run outside the timed window primes the value index
    // and the allocator so records measure steady-state latency.
    let warm = engine
        .run_with_budget(query, budget)
        .map_err(|e| format!("{name}: {e}"))?;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = engine
            .run_with_budget(query, budget)
            .map_err(|e| format!("{name}: {e}"))?;
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        if out.len() != warm.len() {
            return Err(format!(
                "{name}: nondeterministic result size {} vs {}",
                out.len(),
                warm.len()
            ));
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Ok(Measurement {
        name,
        iters,
        mean_ms: mean,
        p50_ms: percentile(&samples, 0.50),
        p99_ms: percentile(&samples, 0.99),
        qps: if mean > 0.0 { 1e3 / mean } else { 0.0 },
        results: warm.len(),
    })
}

/// The write-path workload: one small edit batch (a value rewrite
/// plus a leaf insert) committed through the epoch-batched incremental
/// maintenance path. Every commit must take [`CommitStrategy::Patch`]
/// — a fallback to rebuild on a two-edit batch is a defect, not a
/// slow sample — so the recorded latency is honestly the patch path:
/// snapshot clone, overlay commit, and index splice, end to end.
fn measure_updates(doc: &Arc<Document>, iters: usize) -> Result<Measurement, String> {
    let titles = doc.nodes_labeled("title");
    if titles.is_empty() {
        return Err("update-patch: corpus has no title nodes".into());
    }
    let mut samples = Vec::with_capacity(iters);
    let mut edits = 0usize;
    for i in 0..iters {
        let title = titles[(i * 7919) % titles.len()];
        let text = doc
            .first_child(title)
            .ok_or("update-patch: title without text")?;
        let parent = doc
            .parent(title)
            .ok_or("update-patch: title without parent")?;
        let t0 = Instant::now();
        let mut up = doc
            .begin_update()
            .map_err(|e| format!("update-patch: {e}"))?;
        up.apply(&Edit::ReplaceValue {
            target: text,
            value: format!("Rewritten Title {i}"),
        })
        .map_err(|e| format!("update-patch: {e}"))?;
        up.apply(&Edit::InsertChild {
            parent,
            node: NewNode::Leaf {
                label: "note".to_string(),
                text: format!("bench edit {i}"),
            },
        })
        .map_err(|e| format!("update-patch: {e}"))?;
        let (_next, stats) = up.commit();
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        if stats.strategy != CommitStrategy::Patch {
            return Err(format!(
                "update-patch: small batch fell back to {:?}",
                stats.strategy
            ));
        }
        edits += stats.edits;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Ok(Measurement {
        name: "update-patch",
        iters,
        mean_ms: mean,
        p50_ms: percentile(&samples, 0.50),
        p99_ms: percentile(&samples, 0.99),
        qps: if mean > 0.0 { 1e3 / mean } else { 0.0 },
        results: edits,
    })
}

/// The SQL-backend twins of the `selection` and `mqf-join` workloads:
/// the same logical plans, hand-lowered to the `sqlq` subset exactly as
/// `nalix::backend::sql::lower` emits them, run over the relational
/// view. `(name, query, mega_iters, quick_iters)`.
fn sql_workloads() -> Vec<(&'static str, sqlq::SqlQuery, usize, usize)> {
    use sqlq::{FromItem, PathAxis, Pred, Projection, Scalar, SqlCmp, SqlQuery};
    let child = |alias: &str, label: &str| Scalar::Nodes {
        alias: alias.to_string(),
        axis: PathAxis::Child,
        labels: vec![label.to_string()],
    };
    let selection = SqlQuery {
        projection: Projection::Columns(vec![child("b", "title"), child("b", "year")]),
        from: vec![FromItem {
            alias: "b".to_string(),
            labels: vec!["book".to_string()],
        }],
        preds: vec![
            Pred::Cmp {
                op: SqlCmp::Eq,
                lhs: child("b", "publisher"),
                rhs: Scalar::Str("Addison-Wesley".to_string()),
            },
            Pred::Cmp {
                op: SqlCmp::Gt,
                lhs: child("b", "year"),
                rhs: Scalar::Num(1991.0),
            },
        ],
        order_by: vec![],
    };
    let mqf_join = SqlQuery {
        projection: Projection::Columns(vec![Scalar::Val("t".to_string())]),
        from: vec![
            FromItem {
                alias: "t".to_string(),
                labels: vec!["title".to_string()],
            },
            FromItem {
                alias: "a".to_string(),
                labels: vec!["author".to_string()],
            },
        ],
        preds: vec![Pred::Mqf(vec!["t".to_string(), "a".to_string()])],
        order_by: vec![],
    };
    vec![
        ("selection-sql", selection, 6, 40),
        ("mqf-join-sql", mqf_join, 4, 40),
    ]
}

/// [`measure`]'s SQL-backend counterpart: same warmup, sampling, and
/// determinism check, against the relational view instead of the
/// engine.
fn measure_sql(
    shred: &relstore::Shredding<'_>,
    name: &'static str,
    query: &sqlq::SqlQuery,
    iters: usize,
) -> Result<Measurement, String> {
    let limits = sqlq::ExecLimits::default();
    let warm = sqlq::execute(shred, query, &limits).map_err(|e| format!("{name}: {e}"))?;
    let warm_len = warm.strings(shred).len();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = sqlq::execute(shred, query, &limits).map_err(|e| format!("{name}: {e}"))?;
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        let n = out.strings(shred).len();
        if n != warm_len {
            return Err(format!(
                "{name}: nondeterministic result size {n} vs {warm_len}"
            ));
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Ok(Measurement {
        name,
        iters,
        mean_ms: mean,
        p50_ms: percentile(&samples, 0.50),
        p99_ms: percentile(&samples, 0.99),
        qps: if mean > 0.0 { 1e3 / mean } else { 0.0 },
        results: warm_len,
    })
}

fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.3}")
    }
}

fn render_record(
    phase: &str,
    corpus: &str,
    nodes: usize,
    shards: usize,
    ms: &[Measurement],
) -> String {
    let mut queries = Vec::new();
    for m in ms {
        queries.push((
            m.name.to_owned(),
            Json::Obj(vec![
                ("iters".into(), Json::Num(m.iters as f64)),
                ("mean_ms".into(), Json::Num(round3(m.mean_ms))),
                ("p50_ms".into(), Json::Num(round3(m.p50_ms))),
                ("p99_ms".into(), Json::Num(round3(m.p99_ms))),
                ("qps".into(), Json::Num(round3(m.qps))),
                ("results".into(), Json::Num(m.results as f64)),
            ]),
        ));
    }
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    Json::Obj(vec![
        ("phase".into(), Json::Str(phase.into())),
        ("corpus".into(), Json::Str(corpus.into())),
        ("nodes".into(), Json::Num(nodes as f64)),
        ("shards".into(), Json::Num(shards as f64)),
        ("unix_time".into(), Json::Num(unix as f64)),
        ("queries".into(), Json::Obj(queries)),
    ])
    .render()
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// Pretty-print the records array one record per line — diff-friendly
/// and still valid JSON.
fn render_file(records: &[String]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(r);
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn bench_file_path() -> std::path::PathBuf {
    // The binary runs from anywhere inside the workspace; the record
    // lives at the workspace root, two levels above the bench crate.
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .join("BENCH_EVAL.json")
}

fn check_against(baseline: &Json, ms: &[Measurement]) -> Result<(), String> {
    let phase = baseline
        .get("phase")
        .and_then(Json::as_str)
        .unwrap_or("<unlabelled>");
    let queries = baseline
        .get("queries")
        .ok_or("baseline record has no queries object")?;
    let mut failures = Vec::new();
    for m in ms {
        let Some(base) = queries.get(m.name) else {
            eprintln!("check: no baseline for {} (new workload), skipping", m.name);
            continue;
        };
        let base_qps = base.get("qps").and_then(num).unwrap_or(0.0);
        let base_p99 = base.get("p99_ms").and_then(num).unwrap_or(f64::MAX);
        let base_mean = base.get("mean_ms").and_then(num).unwrap_or(0.0);
        if base_qps > 0.0
            && m.qps < base_qps * (1.0 - TOLERANCE)
            && m.mean_ms > base_mean + MEAN_SLACK_MS
        {
            failures.push(format!(
                "{}: throughput regressed {:.1} → {:.1} qps (>{}%)",
                m.name,
                base_qps,
                m.qps,
                (TOLERANCE * 100.0) as u32
            ));
        }
        if m.p99_ms > base_p99 * (1.0 + TOLERANCE) + P99_SLACK_MS {
            failures.push(format!(
                "{}: p99 regressed {} → {} ms (>{}% + {}ms slack)",
                m.name,
                fmt_ms(base_p99),
                fmt_ms(m.p99_ms),
                (TOLERANCE * 100.0) as u32,
                P99_SLACK_MS
            ));
        }
    }
    if failures.is_empty() {
        eprintln!("check: OK against baseline phase \"{phase}\"");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn mega_corpus() -> Document {
    // 100× the default DBLP config: ~7.3M nodes.
    generate(&DblpConfig {
        books: 240_000,
        articles: 480_000,
        seed: 0xDB1F,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eval_perf: {e}");
            eprintln!("usage: eval_perf [--quick] [--shards N] [--record <phase>] [--check]");
            return ExitCode::FAILURE;
        }
    };
    let corpus_name = if args.quick { "quick" } else { "mega" };
    eprintln!("building {corpus_name} corpus …");
    let t0 = Instant::now();
    let doc = if args.quick {
        generate(&DblpConfig::default())
    } else {
        mega_corpus()
    };
    let nodes = doc.stats().total_nodes();
    eprintln!("corpus: {} nodes in {:.1?}", nodes, t0.elapsed());

    let doc = Arc::new(doc);
    let engine = Engine::new(Arc::clone(&doc));
    let budget = EvalBudget::default().with_shards(args.shards);

    let mut measurements = Vec::new();
    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>12} {:>10} {:>9}",
        "workload", "iters", "mean_ms", "p50_ms", "p99_ms", "qps", "results"
    );
    for (name, query, mega_iters, quick_iters) in WORKLOADS {
        let iters = if args.quick { quick_iters } else { mega_iters };
        match measure(&engine, &budget, name, query, iters) {
            Ok(m) => {
                println!(
                    "{:<12} {:>6} {:>12} {:>12} {:>12} {:>10.1} {:>9}",
                    m.name,
                    m.iters,
                    fmt_ms(m.mean_ms),
                    fmt_ms(m.p50_ms),
                    fmt_ms(m.p99_ms),
                    m.qps,
                    m.results
                );
                measurements.push(m);
            }
            Err(e) => {
                eprintln!("eval_perf: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The write path rides along after the read workloads: same
    // corpus, same record shape, one row per run.
    let update_iters = if args.quick { 40 } else { 4 };
    match measure_updates(&doc, update_iters) {
        Ok(m) => {
            println!(
                "{:<12} {:>6} {:>12} {:>12} {:>12} {:>10.1} {:>9}",
                m.name,
                m.iters,
                fmt_ms(m.mean_ms),
                fmt_ms(m.p50_ms),
                fmt_ms(m.p99_ms),
                m.qps,
                m.results
            );
            measurements.push(m);
        }
        Err(e) => {
            eprintln!("eval_perf: {e}");
            return ExitCode::FAILURE;
        }
    }
    // The SQL backend's rows close the table, over the document's
    // relational view: a borrow of its columns, free to make.
    let shred = relstore::Shredding::build(&doc);
    eprintln!("relational view: {} rows", shred.len());
    for (name, query, mega_iters, quick_iters) in sql_workloads() {
        let iters = if args.quick { quick_iters } else { mega_iters };
        match measure_sql(&shred, name, &query, iters) {
            Ok(m) => {
                println!(
                    "{:<12} {:>6} {:>12} {:>12} {:>12} {:>10.1} {:>9}",
                    m.name,
                    m.iters,
                    fmt_ms(m.mean_ms),
                    fmt_ms(m.p50_ms),
                    fmt_ms(m.p99_ms),
                    m.qps,
                    m.results
                );
                measurements.push(m);
            }
            Err(e) => {
                eprintln!("eval_perf: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let path = bench_file_path();
    if args.check {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("eval_perf: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let parsed = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("eval_perf: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let baseline = parsed.as_array().and_then(|records| {
            records
                .iter()
                .rfind(|r| r.get("corpus").and_then(Json::as_str) == Some(corpus_name))
        });
        let Some(baseline) = baseline else {
            eprintln!("eval_perf: no committed {corpus_name} record to check against");
            return ExitCode::FAILURE;
        };
        if let Err(e) = check_against(baseline, &measurements) {
            eprintln!("eval_perf: PERF REGRESSION\n{e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(phase) = args.record {
        let record = render_record(&phase, corpus_name, nodes, args.shards, &measurements);
        let mut records: Vec<String> = Vec::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => match Json::parse(&text) {
                Ok(j) => {
                    for r in j.as_array().unwrap_or(&[]) {
                        records.push(r.render());
                    }
                }
                Err(e) => {
                    eprintln!("eval_perf: existing {} unparseable: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!("eval_perf: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        records.push(record);
        if let Err(e) = std::fs::write(&path, render_file(&records)) {
            eprintln!("eval_perf: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("recorded phase \"{phase}\" → {}", path.display());
    }

    ExitCode::SUCCESS
}
