//! 100×-scale corpus test: builds the ~8M-node DBLP document the
//! `BENCH_EVAL.json` records are measured against, and asserts the
//! columnar arena's memory stays within budget while representative
//! queries complete under the *default* evaluation budget, on the
//! XQuery engine and on the SQL backend's relational view.
//!
//! Ignored by default — corpus construction alone takes tens of
//! seconds — and run by the dedicated `scale` CI job:
//!
//! ```console
//! $ cargo test --release --test scale_corpus -- --ignored
//! ```

use nalix_repro::relstore::Shredding;
use nalix_repro::sqlq::{self, CmpOp, FromItem, PathAxis, Pred, Projection, Scalar, SqlQuery};
use nalix_repro::xmldb::datasets::dblp::{generate, DblpConfig};
use nalix_repro::xquery::{Engine, EvalBudget};
use std::sync::Arc;

/// The mega corpus of `crates/bench/src/bin/eval_perf.rs` — same
/// config, same seed, so this test guards exactly the corpus the
/// committed perf records describe.
fn mega() -> nalix_repro::xmldb::Document {
    generate(&DblpConfig {
        books: 240_000,
        articles: 480_000,
        seed: 0xDB1F,
    })
}

#[test]
#[ignore = "builds a ~8M-node corpus; run with --ignored (scale CI job)"]
fn mega_corpus_fits_memory_budget_and_answers_under_default_budget() {
    let doc = mega();
    let nodes = doc.stats().total_nodes();
    assert!(
        nodes > 7_000_000,
        "mega corpus should exceed 7M nodes, got {nodes}"
    );

    // Arena memory budget: the struct-of-arrays layout costs 45.0
    // bytes of column data per node; with the string heap, order
    // table, postings and the structural index (8 bytes per node: the
    // pre-keyed parent and extent columns) the whole document must
    // stay within 80 bytes/node — about 0.6 GB here, a fraction of what
    // a pointer-per-node heap representation costs.
    let fp = doc.memory_footprint();
    let per_node = fp.total() as f64 / nodes as f64;
    assert!(
        per_node < 80.0,
        "arena footprint {:.1} bytes/node exceeds the 80 B budget \
         (columns {}, heap {}, order {}, postings {}, index {})",
        per_node,
        fp.node_columns,
        fp.string_heap,
        fp.doc_order,
        fp.label_postings,
        fp.struct_index
    );

    // Representative workloads complete under the *default* budget —
    // the point of the columnar sweeps: a value-index point lookup and
    // the paper's selection query, at 100× the paper's corpus.
    let doc = Arc::new(doc);
    let engine = Engine::new(Arc::clone(&doc));
    let budget = EvalBudget::default();

    let hits = engine
        .run_with_budget(
            r#"for $t in doc()//title where $t = "Data on the Web" return $t"#,
            &budget,
        )
        .expect("value-scan completes under the default budget");
    assert!(!hits.is_empty(), "the seeded corpus contains the title");

    let selection = engine
        .run_with_budget(
            r#"for $b in doc()//book where $b/publisher = "Addison-Wesley" and $b/year > 1991 return ($b/title, $b/year)"#,
            &budget,
        )
        .expect("selection completes under the default budget");
    assert!(
        selection.len() > 10_000,
        "selection should match a large result set, got {}",
        selection.len()
    );

    // The same selection on the SQL backend, lowered as
    // `nalix::backend::sql::lower` emits it. Its first question pays no
    // shredding: the relational view borrows the document's own
    // columns, so the footprint is unchanged by it and the per-node
    // budget above holds with SQL in use.
    let view = Shredding::build(&doc);
    let limits = sqlq::ExecLimits {
        max_tuples: Some(budget.max_tuples as u64),
    };
    let out = sqlq::execute(&view, &selection_sql(), &limits)
        .expect("SQL selection completes under the default budget");
    assert_eq!(out.strings(&view), engine.strings(&selection));
    assert_eq!(
        doc.memory_footprint(),
        fp,
        "a SQL question changed the document's footprint"
    );
    println!("scale_corpus: {per_node:.1} B/node over {nodes} nodes with SQL in use");
}

/// The SQL lowering of the selection question above: books published
/// by Addison-Wesley after 1991, returning each one's title and year.
fn selection_sql() -> SqlQuery {
    let child = |label: &str| Scalar::Nodes {
        alias: "b".to_string(),
        axis: PathAxis::Child,
        labels: vec![label.to_string()],
    };
    SqlQuery {
        projection: Projection::Columns(vec![child("title"), child("year")]),
        from: vec![FromItem {
            alias: "b".to_string(),
            labels: vec!["book".to_string()],
        }],
        preds: vec![
            Pred::Cmp {
                op: CmpOp::Eq,
                lhs: child("publisher"),
                rhs: Scalar::Str("Addison-Wesley".to_string()),
            },
            Pred::Cmp {
                op: CmpOp::Gt,
                lhs: child("year"),
                rhs: Scalar::Num(1991.0),
            },
        ],
        order_by: vec![],
    }
}

/// Incremental-update benchmark at scale: 1,000 node-level edits
/// against the ~8M-node corpus, committed in small batches, must all
/// take the patch path — on a document this large, a fallback to a
/// from-scratch rebuild on a 20-edit batch would mean the incremental
/// maintenance is not actually incremental. Queries against the final
/// snapshot must see every edit.
#[test]
#[ignore = "builds a ~8M-node corpus; run with --ignored (scale CI job)"]
fn mega_corpus_thousand_edits_never_fall_back_to_rebuild() {
    use nalix_repro::xmldb::{CommitStrategy, Edit, NewNode};

    let mut current = Arc::new(mega());
    const BATCHES: usize = 50;
    const PER_BATCH: usize = 20;
    let mut committed = 0usize;
    for batch in 0..BATCHES {
        let titles = current.nodes_labeled("title");
        let mut up = current.begin_update().expect("corpus is finalized");
        for k in 0..PER_BATCH / 2 {
            // Deterministic scatter over the corpus; 7919 is prime so
            // successive batches touch disjoint regions.
            let pick = ((batch * PER_BATCH + k) * 7919) % titles.len();
            let title = titles[pick];
            let text = current.first_child(title).expect("titles carry text");
            up.apply(&Edit::ReplaceValue {
                target: text,
                value: format!("Edited Title {batch}-{k}"),
            })
            .expect("value rewrite applies");
            up.apply(&Edit::InsertChild {
                parent: current.parent(title).expect("titles have parents"),
                node: NewNode::Leaf {
                    label: "note".to_string(),
                    text: format!("edit {batch}-{k}"),
                },
            })
            .expect("leaf insert applies");
        }
        assert_eq!(
            up.strategy(),
            CommitStrategy::Patch,
            "a {PER_BATCH}-edit batch on an 8M-node corpus must patch"
        );
        let (next, stats) = up.commit();
        assert_eq!(
            stats.strategy,
            CommitStrategy::Patch,
            "batch {batch} fell back to a rebuild"
        );
        committed += stats.edits;
        current = Arc::new(next);
    }
    assert_eq!(committed, BATCHES * PER_BATCH, "all 1k edits committed");

    // The final snapshot answers from its patched indexes: every
    // inserted note is reachable, and a rewritten title is gone from
    // the value index while its replacement is present.
    let engine = Engine::new(Arc::clone(&current));
    let budget = EvalBudget::default();
    let notes = engine
        .run_with_budget(
            r#"for $n in doc()//note where $n = "edit 0-0" return $n"#,
            &budget,
        )
        .expect("note lookup completes");
    assert_eq!(notes.len(), 1, "inserted note is indexed");
    let rewritten = engine
        .run_with_budget(
            r#"for $t in doc()//title where $t = "Edited Title 49-9" return $t"#,
            &budget,
        )
        .expect("rewritten-title lookup completes");
    assert_eq!(rewritten.len(), 1, "rewritten title is indexed");
}
