//! The Fig. 6 memo: a correlated aggregate body (`let` in the engine, a
//! scalar or `EXISTS` subquery in `sqlq`) that sees the outer tuple only
//! through value comparisons is evaluated once per distinct key.
//!
//! - (a) On a hand-built document, bodies that use the outer variable
//!   structurally are not memoised: their tuple count equals per-tuple
//!   evaluation and they record no memo hit. A body compared with `<`
//!   against `"1990-"` answers per exact string, so `"1990"` and
//!   `"1990.0"` get separate entries.
//! - (b) At 1/8 paper scale, Q10's three answered phrasings and Q6's
//!   "number of authors … at least 1" give the same answers memoised,
//!   made memo-ineligible, on the SQL backend, and memoised under
//!   four-way sharding.
//! - (c) At paper scale, each Q10 phrasing enumerates under 100,000
//!   tuples, the same count on every run.

use nalix_repro::nalix::{obs, AnswerSet, BackendKind, Nalix, Outcome};
use nalix_repro::userstudy::phrasings::{nl_pool, PoolKind};
use nalix_repro::userstudy::tasks::TaskId;
use nalix_repro::xmldb::datasets::dblp::{generate, DblpConfig};
use nalix_repro::xmldb::Document;
use nalix_repro::xquery::eval::Env;
use nalix_repro::xquery::{parse, AggFunc, Binding, CmpOp, Engine, EvalBudget, Expr, PathRoot};

/// `(eval_tuples, memo_hits)` recorded by `engine` while `f` runs.
fn work<T>(engine: &Engine, f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = engine.metrics().snapshot();
    let out = f();
    let after = engine.metrics().snapshot();
    let delta = |c| after.counter(c) - before.counter(c);
    (
        out,
        delta(obs::Counter::EvalTuples),
        delta(obs::Counter::MemoHits),
    )
}

/// Tuples the body `body` charges when evaluated once per item of
/// `outer`, bound to `$var` — the per-tuple reference. `distinct_only`
/// evaluates the first item of each distinct string value only (what a
/// memo keyed by the item's string does).
fn per_tuple_tuples(
    engine: &Engine,
    outer: &str,
    var: &str,
    body: &str,
    distinct_only: bool,
) -> u64 {
    let items = engine.run(outer).unwrap();
    let body = parse(body).unwrap();
    let mut seen = Vec::new();
    let mut total = 0;
    for item in items {
        let s = engine.item_string(&item);
        if distinct_only && seen.contains(&s) {
            continue;
        }
        seen.push(s);
        let env = Env::new().bind(var, vec![item]);
        let (_, tuples, _) = work(engine, || {
            engine
                .eval_with_budget(&body, &env, &EvalBudget::default())
                .unwrap()
        });
        total += tuples;
    }
    total
}

const LIBRARY: &str = "<lib>\
    <book><title>A</title><year>1990</year><author>X</author></book>\
    <book><title>A</title><year>1991</year><author>X</author><author>Z</author></book>\
    <book><title>AX</title><year>1990.0</year></book>\
    <book><title>B</title><year>1990</year><author>Y</author></book>\
    </lib>";

#[test]
fn structural_bodies_run_per_tuple_and_compared_bodies_per_exact_string() {
    let engine = Engine::new(Document::parse_str(LIBRARY).unwrap());
    let run = |engine: &Engine, q: &str| {
        let (out, tuples, hits) = work(engine, || engine.run(q).unwrap());
        (engine.strings(&out), tuples, hits)
    };

    // Bodies that use `$v1` structurally — in `mqf()` and under an
    // aggregate — run once per title, though two titles are "A".
    // `for`, `let` and `return` charge one tuple each per title; the
    // rest is the body, once per title.
    let structural = [
        (
            "for $y in doc()//year where mqf($y, $v1) return $y",
            "$s",
            vec!["A", "1990", "A", "1991", "AX", "1990.0", "B", "1990"],
        ),
        (
            "for $t in doc()//title where count($v1) >= 1 and $t = $v1 return $t",
            "count($s)",
            vec!["A", "2", "A", "2", "AX", "1", "B", "1"],
        ),
    ];
    for (body, ret, want) in structural {
        let q = format!("for $v1 in doc()//title let $s := {{ {body} }} return ($v1, {ret})");
        let (answer, tuples, hits) = run(&engine, &q);
        assert_eq!(answer, want, "{q}");
        assert_eq!(hits, 0, "{q} must not be memoised");
        let reference = 3 * 4 + per_tuple_tuples(&engine, "doc()//title", "v1", body, false);
        assert_eq!(tuples, reference, "{q}");
    }

    // `$v1/author` on two entries whose string values are both "AX" but
    // whose children differ: a memo keyed by the string would answer 0
    // for both.
    let shelf = Engine::new(
        Document::parse_str("<r><b><t>AX</t></b><b><t>A</t><author>X</author></b></r>").unwrap(),
    );
    let (answer, tuples, hits) = run(
        &shelf,
        "for $v1 in doc()//b let $a := $v1/author return count($a)",
    );
    assert_eq!(answer, vec!["0", "1"]);
    assert_eq!(hits, 0);
    assert_eq!(tuples, 3 * 2, "a path body enumerates no tuples of its own");

    // Compared only: memoised per exact atomized string. "1990" and
    // "1990.0" are equal as numbers, but against "1990-" they compare
    // as strings, and only "1990" sorts before it.
    let body = "for $t in doc()//title where $y < \"1990-\" return $t";
    let (answer, tuples, hits) = run(
        &engine,
        &format!("for $y in doc()//year let $s := {{ {body} }} return count($s)"),
    );
    assert_eq!(answer, vec!["4", "0", "0", "4"]);
    assert_eq!(hits, 1, "the second \"1990\" reuses the first");
    let reference = 3 * 4 + per_tuple_tuples(&engine, "doc()//year", "y", body, true);
    assert_eq!(tuples, reference);

    // A body with no outer reference is evaluated once.
    let (answer, _, hits) = run(
        &engine,
        "for $y in doc()//year let $n := { for $a in doc()//author return $a } return count($n)",
    );
    assert_eq!(answer, vec!["4", "4", "4", "4"]);
    assert_eq!(hits, 3);
}

/// The answered Q10 phrasings and Q6's aggregate phrasing.
fn fig6_phrasings() -> Vec<&'static str> {
    let mut out: Vec<&str> = nl_pool(TaskId::Q10)
        .into_iter()
        .filter(|p| p.kind != PoolKind::Invalid)
        .map(|p| p.text)
        .collect();
    assert_eq!(out.len(), 3, "{out:?}");
    out.extend(
        nl_pool(TaskId::Q6)
            .into_iter()
            .map(|p| p.text)
            .filter(|t| t.contains("number of authors")),
    );
    assert_eq!(out.len(), 4, "{out:?}");
    out
}

/// Add a vacuous `count($outer) >= 1` conjunct to every `let` body's
/// `where`, for each outer variable its value join compares against.
/// The body then uses the outer variable under an aggregate, which
/// makes it memo-ineligible without changing its value. Returns the
/// number of conjuncts added.
fn make_memo_ineligible(query: &mut Expr) -> usize {
    let Expr::Flwor { bindings, .. } = query else {
        return 0;
    };
    let mut added = 0;
    for b in bindings {
        let Binding::Let {
            value:
                Expr::Flwor {
                    bindings: inner,
                    where_clause: Some(w),
                    ..
                },
            ..
        } = b
        else {
            continue;
        };
        let local: Vec<String> = inner.iter().map(|b| b.var().to_owned()).collect();
        let mut conjuncts = vec![w.as_ref()];
        let mut outer = Vec::new();
        while let Some(c) = conjuncts.pop() {
            match c {
                Expr::And(parts) => conjuncts.extend(parts),
                Expr::Cmp { lhs, rhs, .. } => {
                    for side in [lhs, rhs] {
                        if let Expr::Path {
                            root: PathRoot::Var(v),
                            steps,
                        } = side.as_ref()
                        {
                            if steps.is_empty() && !local.contains(v) && !outer.contains(v) {
                                outer.push(v.clone());
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for v in outer {
            let vacuous = Expr::cmp(
                CmpOp::Ge,
                Expr::Agg {
                    func: AggFunc::Count,
                    arg: Box::new(Expr::var(v)),
                },
                Expr::Num(1.0),
            );
            let old = std::mem::replace(w.as_mut(), Expr::Num(0.0));
            *w.as_mut() = old.and(vacuous);
            added += 1;
        }
    }
    added
}

/// Answer one phrasing memoised, made ineligible, and memoised under
/// four shards, all on the XQuery engine; the memoised answer must
/// equal the other two exactly and record memo hits, the ineligible
/// run none.
fn xquery_references(nalix: &Nalix, q: &str) -> AnswerSet {
    let budget = EvalBudget::default();
    let before = nalix.metrics().counter(obs::Counter::MemoHits);
    let memoised = nalix
        .answer_set(BackendKind::Xquery, q, &budget)
        .unwrap_or_else(|e| panic!("{q}: {e}"));
    assert!(
        nalix.metrics().counter(obs::Counter::MemoHits) > before,
        "{q}: no memo hit"
    );

    let Outcome::Translated(t) = nalix.query(q) else {
        panic!("{q} should translate");
    };
    let engine = Engine::new(nalix.doc_handle());
    let mut ineligible = t.translation.query.clone();
    assert!(
        make_memo_ineligible(&mut ineligible) > 0,
        "{q}: no value join"
    );
    let (out, _, hits) = work(&engine, || {
        engine.eval_expr_with_budget(&ineligible, &budget).unwrap()
    });
    assert_eq!(hits, 0, "{q}: the rewritten body must not be memoised");
    assert_eq!(
        engine.strings(&out),
        memoised.values,
        "{q}: memo-ineligible"
    );

    let sharded = engine
        .eval_expr_with_budget(&t.translation.query, &budget.clone().with_shards(4))
        .unwrap();
    assert_eq!(
        engine.strings(&sharded),
        memoised.values,
        "{q}: four shards"
    );
    memoised
}

#[test]
fn fig6_phrasings_answer_identically_with_and_without_the_memo() {
    let eighth = Nalix::new(generate(&DblpConfig {
        books: 300,
        articles: 600,
        ..DblpConfig::default()
    }));
    // At 1/8 scale the SQL backend refuses Q6's aggregate phrasing with
    // `budget.tuples` with or without the memo: its subquery joins in
    // `FROM` order, so every article author meets every book. Its SQL
    // reference runs on the 40-book corpus instead.
    let small = Nalix::new(generate(&DblpConfig::small()));
    let budget = EvalBudget::default();
    for q in fig6_phrasings() {
        let nalix = if q.contains("number of authors") {
            let _ = xquery_references(&eighth, q);
            &small
        } else {
            &eighth
        };
        let memoised = xquery_references(nalix, q);
        let before = nalix.metrics().counter(obs::Counter::MemoHits);
        let sql = nalix
            .answer_set(BackendKind::Sql, q, &budget)
            .unwrap_or_else(|e| panic!("{q} on sql: {e}"));
        assert!(memoised.equivalent(&sql), "{q}: xquery vs sql");
        assert!(
            nalix.metrics().counter(obs::Counter::MemoHits) > before,
            "{q}: no memo hit on sql"
        );
    }
}

#[test]
fn q10_stays_under_100k_tuples_at_paper_scale() {
    let nalix = Nalix::new(generate(&DblpConfig::default()));
    let budget = EvalBudget::default();
    for q in fig6_phrasings().into_iter().take(3) {
        let mut counts = Vec::new();
        for _ in 0..2 {
            let before = nalix.metrics();
            nalix
                .answer_set(BackendKind::Xquery, q, &budget)
                .unwrap_or_else(|e| panic!("{q}: {e}"));
            let after = nalix.metrics();
            counts.push(
                after.counter(obs::Counter::EvalTuples) - before.counter(obs::Counter::EvalTuples),
            );
            assert!(
                after.counter(obs::Counter::MemoHits) > before.counter(obs::Counter::MemoHits),
                "{q}: no memo hit"
            );
        }
        assert_eq!(counts[0], counts[1], "{q}: tuple count must repeat");
        assert!(counts[0] < 100_000, "{q}: {} tuples", counts[0]);
        println!("{} tuples: {q}", counts[0]);
    }
}
