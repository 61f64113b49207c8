//! Differential tests for incremental index maintenance: a patched
//! pipeline (`Nalix::successor` over an update's delta) must be
//! indistinguishable from a pipeline rebuilt from scratch over the
//! *same* committed document.
//!
//! The from-scratch rebuild is the oracle. For proptest-generated
//! random edit scripts against the `bib` and `movies` datasets we
//! assert, on the successor document both pipelines share:
//!
//! * the incrementally patched catalog equals `Catalog::build` output
//!   bit for bit (labels, value index, numeric ranges — `Catalog`
//!   derives `PartialEq` for exactly this comparison);
//! * a battery of natural-language questions — chosen to exercise the
//!   carried value-index shards, numeric ranges, and label postings —
//!   answers identically through both pipelines, on both backends.
//!
//! The rebuilt pipeline runs over a copy of the committed document that
//! is finalized again from its links, so its pre ranks, postings and
//! pre-keyed parent/extent columns are recomputed rather than spliced.
//! The SQL backend's view reads those columns directly, which makes its
//! answers the check on the patched columns.
//!
//! Scripts large enough to trip the rebuild threshold exercise the
//! `CommitStrategy::Rebuild` path of `Nalix::successor`; small scripts
//! exercise `Patch`. Both must agree with the oracle.

use nalix_repro::nalix::{BackendKind, Nalix};
use nalix_repro::xmldb::datasets::{bib::bib, movies::movies};
use nalix_repro::xmldb::{Document, Edit, NewNode, NodeId, NodeKind, UpdateStats};
use nalix_repro::xquery::EvalBudget;
use proptest::prelude::*;
use std::sync::Arc;

/// One abstract edit: resolved against the live nodes of the snapshot
/// being edited, so any `(op, sel, payload)` triple is meaningful for
/// any document. Resolution can still produce an invalid edit (kind
/// mismatch, duplicate attribute, root deletion); those are *applied
/// and rejected*, which is part of the surface under test — a rejected
/// edit must leave the overlay untouched.
#[derive(Debug, Clone)]
struct Op {
    kind: u8,
    sel: u32,
    payload: u8,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, any::<u32>(), any::<u8>()).prop_map(|(kind, sel, payload)| Op { kind, sel, payload })
}

/// Picks the live node an op addresses: pre-order rank `sel`, modulo
/// the snapshot's live-node count.
fn pick(doc: &Document, sel: u32) -> NodeId {
    let live = doc.stats().total_nodes() as u32;
    doc.node_at_pre(sel % live).expect("rank is in range")
}

/// Nearest element at-or-above `id` (insert ops need element parents).
fn element_at_or_above(doc: &Document, mut id: NodeId) -> NodeId {
    while doc.kind(id) != NodeKind::Element {
        id = doc.parent(id).expect("non-element nodes have parents");
    }
    id
}

fn new_node(payload: u8) -> NewNode {
    match payload % 4 {
        0 => NewNode::Leaf {
            label: "note".to_string(),
            text: format!("n{payload}"),
        },
        1 => NewNode::Element {
            label: "extra".to_string(),
        },
        2 => NewNode::Text {
            text: format!("t{payload}"),
        },
        _ => NewNode::Attribute {
            name: format!("a{}", payload % 8),
            value: format!("v{payload}"),
        },
    }
}

fn resolve(doc: &Document, op: &Op) -> Edit {
    let target = pick(doc, op.sel);
    match op.kind {
        0 => Edit::InsertChild {
            parent: element_at_or_above(doc, target),
            node: new_node(op.payload),
        },
        1 => Edit::InsertSibling {
            after: target,
            node: new_node(op.payload),
        },
        2 => Edit::DeleteSubtree { target },
        3 => Edit::ReplaceValue {
            target,
            value: format!("r{}", op.payload),
        },
        _ => Edit::RenameLabel {
            target,
            label: format!("tag{}", op.payload % 8),
        },
    }
}

/// Applies the script to `base`, commits, and asserts the patched
/// pipeline is indistinguishable from a from-scratch rebuild over the
/// committed document. Returns how many edits were accepted.
fn assert_differential(base: Document, ops: &[Op], questions: &[&str]) -> usize {
    let base = Arc::new(base);
    let prior = Nalix::new(Arc::clone(&base));
    let mut up = base.begin_update().expect("dataset is finalized");
    let mut accepted = 0;
    for op in ops {
        // Targets resolve against the base snapshot (node ids are
        // stable into the overlay), so a later op can address a node
        // an earlier op already detached. Rejected edits (kind
        // mismatch, duplicate attribute, root deletion, detached
        // target) must leave the overlay unchanged.
        if up.apply(&resolve(&base, op)).is_ok() {
            accepted += 1;
        }
    }
    let (next, stats) = up.commit();
    assert_eq!(stats.edits, accepted);
    let next = Arc::new(next);

    let patched = Nalix::successor(&prior, Arc::clone(&next), &stats);
    let oracle = rebuilt(&next);

    assert_eq!(
        patched.catalog(),
        oracle.catalog(),
        "patched catalog diverged from a from-scratch build \
         (strategy {:?}, {} edits)",
        stats.strategy,
        stats.edits
    );
    assert_same_answers(&patched, &oracle, questions, &stats);
    accepted
}

/// The from-scratch oracle: a pipeline over a copy of `doc` whose
/// ranks, postings and structural index are rebuilt from its links.
fn rebuilt(doc: &Document) -> Nalix {
    let mut copy = doc.clone();
    copy.finalize();
    Nalix::new(copy)
}

/// Every question answers identically through both pipelines, on the
/// XQuery backend and on the SQL backend (rejections by error code).
fn assert_same_answers(patched: &Nalix, oracle: &Nalix, questions: &[&str], stats: &UpdateStats) {
    let sql = |n: &Nalix, q: &str| {
        n.answer_full_on(BackendKind::Sql, q, &EvalBudget::default())
            .map(|a| a.values)
            .map_err(|e| e.code())
    };
    for q in questions {
        let a = patched.ask(q).ok();
        let b = oracle.ask(q).ok();
        assert_eq!(a, b, "answers diverged for {q:?} ({:?})", stats.strategy);
        assert_eq!(
            sql(patched, q),
            sql(oracle, q),
            "SQL answers diverged for {q:?} ({:?})",
            stats.strategy
        );
    }
}

/// Questions that route through every index a patch carries or
/// repairs: value-index equality probes, numeric range classification,
/// and plain label postings.
const BIB_QUESTIONS: &[&str] = &[
    "Find all the titles of books.",
    "Return the title of every book published by Addison-Wesley after 1991.",
    "Return the lowest price for each book.",
];
const MOVIE_QUESTIONS: &[&str] = &[
    "Find all the movies directed by Ron Howard.",
    "Return every director who has directed as many movies as has Ron Howard.",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32),
    ))]

    /// Small scripts: the patch path (spot-checked below; tiny bib
    /// documents can still tip into rebuild when deletes dominate).
    #[test]
    fn bib_patched_pipeline_matches_rebuild(ops in proptest::collection::vec(op_strategy(), 1..12)) {
        assert_differential(bib(), &ops, BIB_QUESTIONS);
    }

    #[test]
    fn movies_patched_pipeline_matches_rebuild(ops in proptest::collection::vec(op_strategy(), 1..12)) {
        assert_differential(movies(), &ops, MOVIE_QUESTIONS);
    }

    /// Long scripts tip `PendingUpdate::strategy` into `Rebuild` on
    /// these small datasets, exercising the successor's rebuild arm.
    #[test]
    fn long_scripts_agree_through_either_strategy(ops in proptest::collection::vec(op_strategy(), 24..64)) {
        assert_differential(bib(), &ops, BIB_QUESTIONS);
    }
}

/// Deterministic guard that the *patch* arm (not just rebuild) is what
/// the proptest exercises for small scripts: a handful of edits on bib
/// must commit as `Patch` and still match the oracle.
#[test]
fn small_edit_commits_as_patch_and_matches() {
    let base = Arc::new(bib());
    let prior = Nalix::new(Arc::clone(&base));
    let mut up = base.begin_update().unwrap();
    let book = base.nodes_labeled("book")[0];
    up.apply(&Edit::InsertChild {
        parent: book,
        node: NewNode::Leaf {
            label: "note".to_string(),
            text: "checked".to_string(),
        },
    })
    .unwrap();
    let (next, stats) = up.commit();
    assert_eq!(stats.strategy, nalix_repro::xmldb::CommitStrategy::Patch);
    let next = Arc::new(next);
    let patched = Nalix::successor(&prior, Arc::clone(&next), &stats);
    let oracle = rebuilt(&next);
    assert_eq!(patched.catalog(), oracle.catalog());
    assert_same_answers(&patched, &oracle, BIB_QUESTIONS, &stats);
}
