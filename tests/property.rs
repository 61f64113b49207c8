//! Property-based tests (proptest) over the core invariants:
//! XML round-tripping, LCA/MLCA algebra, the indexed partner
//! enumeration, parser robustness, metric bounds, end-to-end no-panic
//! guarantees for template-generated English, and the shared value
//! layer's `min`/`max`.

use nalix_repro::nalix::{Nalix, Outcome};
use nalix_repro::nlparser;
use nalix_repro::userstudy::metrics::{harmonic_mean, order_factor, precision_recall};
use nalix_repro::xmldb::{Document, NodeId};
use nalix_repro::xquery::mlca::{
    meaningful_partners, meaningful_partners_indexed, meaningfully_related,
};
use nalix_repro::xquery::value::{aggregate, parse_finite};
use nalix_repro::xquery::{AggFunc, Item};
use proptest::prelude::*;
use std::cmp::Ordering;

// ---------------------------------------------------------------------
// Random document generation
// ---------------------------------------------------------------------

/// A recursive tree blueprint: (label index, children).
#[derive(Debug, Clone)]
struct TreeSpec {
    label: usize,
    text: Option<u8>,
    children: Vec<TreeSpec>,
}

const LABELS: [&str; 6] = ["lib", "shelf", "book", "title", "author", "note"];

fn tree_strategy() -> impl Strategy<Value = TreeSpec> {
    let leaf =
        (0..LABELS.len(), proptest::option::of(any::<u8>())).prop_map(|(label, text)| TreeSpec {
            label,
            text,
            children: vec![],
        });
    leaf.prop_recursive(4, 64, 5, |inner| {
        (
            0..LABELS.len(),
            proptest::option::of(any::<u8>()),
            proptest::collection::vec(inner, 0..5),
        )
            .prop_map(|(label, text, children)| TreeSpec {
                label,
                text,
                children,
            })
    })
}

fn build(spec: &TreeSpec) -> Document {
    fn add(doc: &mut Document, parent: NodeId, spec: &TreeSpec) {
        let el = doc.add_element(parent, LABELS[spec.label]);
        if let Some(t) = spec.text {
            doc.add_text(el, &format!("v{t}"));
        }
        for c in &spec.children {
            add(doc, el, c);
        }
    }
    let mut doc = Document::new("root");
    let root = doc.root();
    add(&mut doc, root, spec);
    doc.finalize();
    doc
}

/// `id` and its ancestors, nearest first, over the arena's link column:
/// the definition oracles below share no code with the pre-rank climb.
fn chain(doc: &Document, id: NodeId) -> Vec<NodeId> {
    std::iter::once(id).chain(doc.ancestors(id)).collect()
}

/// LCA by definition: the first node of `a`'s chain on `b`'s chain.
fn lca_oracle(doc: &Document, a: NodeId, b: NodeId) -> NodeId {
    let on_b = chain(doc, b);
    chain(doc, a)
        .into_iter()
        .find(|x| on_b.contains(x))
        .expect("nodes of one document share the root")
}

/// Path child by definition: the node of `desc`'s chain whose parent is
/// `anc`.
fn child_toward_oracle(doc: &Document, anc: NodeId, desc: NodeId) -> Option<NodeId> {
    chain(doc, desc)
        .into_iter()
        .find(|&x| doc.parent(x) == Some(anc))
}

/// MLCA straight from the paper's definition (Sec. 2), by brute force
/// over ancestor chains: `(a, b)` is *not* meaningful when some `a'`
/// with `a`'s label has `lca(a', b)` strictly below `lca(a, b)`, or some
/// `b'` with `b`'s label has `lca(a, b')` strictly below it.
fn mlca_oracle(doc: &Document, a: NodeId, b: NodeId) -> bool {
    let c = lca_oracle(doc, a, b);
    let blocked = |like: NodeId, other: NodeId| {
        (0..doc.len()).map(NodeId::from_index).any(|x| {
            doc.label(x) == doc.label(like) && doc.is_proper_ancestor(c, lca_oracle(doc, x, other))
        })
    };
    !blocked(a, b) && !blocked(b, a)
}

fn elements(doc: &Document) -> Vec<NodeId> {
    (0..doc.len())
        .map(NodeId::from_index)
        .filter(|&n| doc.node(n).is_element())
        .collect()
}

proptest! {
    // -----------------------------------------------------------------
    // XML round-trip
    // -----------------------------------------------------------------

    #[test]
    fn xml_round_trip_preserves_structure(spec in tree_strategy()) {
        let doc = build(&spec);
        let xml = doc.to_xml(doc.root());
        let doc2 = Document::parse_str(&xml).expect("serialized XML re-parses");
        prop_assert_eq!(doc.len(), doc2.len());
        prop_assert_eq!(doc.stats().elements, doc2.stats().elements);
        prop_assert_eq!(doc.stats().text_nodes, doc2.stats().text_nodes);
        // label multiset preserved
        let mut l1: Vec<String> = elements(&doc).iter().map(|&n| doc.label(n).to_owned()).collect();
        let mut l2: Vec<String> = elements(&doc2).iter().map(|&n| doc2.label(n).to_owned()).collect();
        l1.sort();
        l2.sort();
        prop_assert_eq!(l1, l2);
    }

    // -----------------------------------------------------------------
    // LCA algebra
    // -----------------------------------------------------------------

    #[test]
    fn lca_is_common_ancestor_and_symmetric(spec in tree_strategy()) {
        let doc = build(&spec);
        let els = elements(&doc);
        for (i, &a) in els.iter().enumerate().step_by(3) {
            for &b in els.iter().skip(i).step_by(5) {
                let l = doc.lca(a, b);
                prop_assert_eq!(l, doc.lca(b, a));
                prop_assert!(doc.is_ancestor_or_self(l, a));
                prop_assert!(doc.is_ancestor_or_self(l, b));
                // minimality: no child of l on both paths
                for c in doc.children(l) {
                    prop_assert!(
                        !(doc.is_ancestor_or_self(c, a) && doc.is_ancestor_or_self(c, b))
                    );
                }
            }
        }
    }

    #[test]
    fn ancestor_test_matches_walk(spec in tree_strategy()) {
        let doc = build(&spec);
        let els = elements(&doc);
        for &n in els.iter().step_by(4) {
            let walk: Vec<NodeId> = doc.ancestors(n).collect();
            for &a in &walk {
                prop_assert!(doc.is_proper_ancestor(a, n));
            }
            prop_assert!(!doc.is_proper_ancestor(n, n));
        }
    }

    // -----------------------------------------------------------------
    // Structural index vs definition oracles
    //
    // `finalize` builds the pre-keyed parent and extent columns, and
    // `lca`/`child_toward` climb them; the oracles walk the arena's
    // link column by definition, over every node pair of random trees.
    // -----------------------------------------------------------------

    #[test]
    fn indexed_lca_matches_walk_oracle(spec in tree_strategy()) {
        let doc = build(&spec);
        let all: Vec<NodeId> = (0..doc.len()).map(NodeId::from_index).collect();
        for &a in &all {
            for &b in &all {
                prop_assert_eq!(doc.lca(a, b), lca_oracle(&doc, a, b), "lca({:?},{:?})", a, b);
            }
        }
    }

    #[test]
    fn indexed_child_toward_matches_walk_oracle(spec in tree_strategy()) {
        let doc = build(&spec);
        let all: Vec<NodeId> = (0..doc.len()).map(NodeId::from_index).collect();
        for &a in &all {
            for &b in &all {
                prop_assert_eq!(
                    doc.child_toward(a, b),
                    child_toward_oracle(&doc, a, b),
                    "child_toward({:?},{:?})", a, b
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // MLCA algebra
    // -----------------------------------------------------------------

    #[test]
    fn mlca_matches_the_definition_oracle(spec in tree_strategy()) {
        let doc = build(&spec);
        let all: Vec<NodeId> = (0..doc.len()).map(NodeId::from_index).collect();
        for &a in &all {
            for &b in &all {
                prop_assert_eq!(
                    meaningfully_related(&doc, a, b),
                    mlca_oracle(&doc, a, b),
                    "mqf({:?},{:?})", a, b
                );
            }
        }
    }

    #[test]
    fn mlca_is_reflexive_and_symmetric(spec in tree_strategy()) {
        let doc = build(&spec);
        let els = elements(&doc);
        for (i, &a) in els.iter().enumerate().step_by(3) {
            prop_assert!(meaningfully_related(&doc, a, a));
            for &b in els.iter().skip(i + 1).step_by(4) {
                prop_assert_eq!(
                    meaningfully_related(&doc, a, b),
                    meaningfully_related(&doc, b, a)
                );
            }
        }
    }

    #[test]
    fn mlca_unique_label_ancestor_pairs_are_meaningful(spec in tree_strategy()) {
        // Ancestor/descendant pairs are meaningful *unless* a same-label
        // node blocks (e.g. an <author> nested inside an <author> blocks
        // its ancestor). When both labels are unique in the document no
        // blocker can exist, so the pair must be meaningful.
        let doc = build(&spec);
        for &n in elements(&doc).iter().step_by(3) {
            if doc.nodes_labeled(doc.label(n)).len() != 1 {
                continue;
            }
            for a in doc.ancestors(n) {
                if doc.nodes_labeled(doc.label(a)).len() != 1 {
                    continue;
                }
                prop_assert!(meaningfully_related(&doc, a, n), "unique-label ancestor pair");
            }
        }
    }

    #[test]
    fn indexed_partners_match_naive(spec in tree_strategy()) {
        let doc = build(&spec);
        let els = elements(&doc);
        for &a in els.iter().step_by(3) {
            for label in LABELS {
                let Some(sym) = doc.lookup(label) else { continue };
                let fast = meaningful_partners_indexed(&doc, a, sym);
                let naive = meaningful_partners(&doc, a, label);
                prop_assert_eq!(&fast, &naive, "anchor {} label {}", a, label);
            }
        }
    }

    // -----------------------------------------------------------------
    // Metrics bounds
    // -----------------------------------------------------------------

    #[test]
    fn precision_recall_bounds(
        returned in proptest::collection::vec("[a-d]{1,2}", 0..8),
        expected in proptest::collection::vec("[a-d]{1,2}", 0..8),
    ) {
        let pr = precision_recall(&returned, &expected);
        prop_assert!((0.0..=1.0).contains(&pr.precision));
        prop_assert!((0.0..=1.0).contains(&pr.recall));
        let h = pr.harmonic();
        prop_assert!((0.0..=1.0).contains(&h));
        prop_assert!(h <= pr.precision.max(pr.recall) + 1e-12);
    }

    #[test]
    fn harmonic_mean_is_bounded_by_min_and_max(p in 0.0f64..=1.0, r in 0.0f64..=1.0) {
        let h = harmonic_mean(p, r);
        prop_assert!(h <= p.max(r) + 1e-12);
        if p > 0.0 && r > 0.0 {
            prop_assert!(h >= 0.0);
            prop_assert!(h <= 2.0 * p.min(r) / (p.min(r) + p.max(r)) * p.max(r) + 1e-9);
        }
    }

    #[test]
    fn order_factor_bounds(
        a in proptest::collection::vec("[a-c]", 0..6),
        b in proptest::collection::vec("[a-c]", 1..6),
    ) {
        let f = order_factor(&a, &b);
        prop_assert!((0.0..=1.0).contains(&f));
    }

    // -----------------------------------------------------------------
    // Parser robustness: word salad must never panic; any tree produced
    // must satisfy the structural invariants.
    // -----------------------------------------------------------------

    #[test]
    fn nl_parser_never_panics_on_word_salad(
        words in proptest::collection::vec(
            prop_oneof![
                Just("Return".to_owned()),
                Just("the".to_owned()),
                Just("of".to_owned()),
                Just("every".to_owned()),
                Just("movie".to_owned()),
                Just("director".to_owned()),
                Just("is".to_owned()),
                Just("not".to_owned()),
                Just("and".to_owned()),
                Just("where".to_owned()),
                Just("1991".to_owned()),
                "[a-z]{1,8}",
            ],
            1..12,
        )
    ) {
        let sentence = words.join(" ");
        // A rejection is fine; panicking is not.
        if let Ok(tree) = nlparser::parse(&sentence) {
            prop_assert!(tree.check_invariants().is_ok(), "{}", tree.outline());
        }
    }

    // -----------------------------------------------------------------
    // XQuery text parser robustness
    // -----------------------------------------------------------------

    #[test]
    fn xquery_parser_never_panics(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("for".to_owned()),
                Just("$v".to_owned()),
                Just("in".to_owned()),
                Just("doc()".to_owned()),
                Just("//movie".to_owned()),
                Just("where".to_owned()),
                Just("return".to_owned()),
                Just("count".to_owned()),
                Just("(".to_owned()),
                Just(")".to_owned()),
                Just("=".to_owned()),
                Just("\"x\"".to_owned()),
                Just("1".to_owned()),
            ],
            1..12,
        )
    ) {
        let text = tokens.join(" ");
        let _ = nalix_repro::xquery::parse(&text); // must not panic
    }

    // -----------------------------------------------------------------
    // End-to-end: template-generated English over the movies database
    // never panics; accepted queries evaluate without error.
    // -----------------------------------------------------------------

    #[test]
    fn template_queries_accepted_or_rejected_gracefully(
        noun1 in prop_oneof![
            Just("movie"), Just("director"), Just("title"), Just("year"), Just("film"),
            Just("spaceship")
        ],
        noun2 in prop_oneof![
            Just("movie"), Just("director"), Just("title"), Just("year")
        ],
        value in prop_oneof![Just("Ron Howard"), Just("Traffic"), Just("Nobody")],
        shape in 0u8..4,
    ) {
        let doc = nalix_repro::xmldb::datasets::movies::movies();
        let nalix = Nalix::new(doc.clone());
        let q = match shape {
            0 => format!("Return the {noun1} of each {noun2}."),
            1 => format!("Return every {noun1}, where the {noun2} of the {noun1} is \"{value}\"."),
            2 => format!("Find all the {noun1}s directed by {value}."),
            _ => format!("Return the number of {noun1}s of each {noun2}."),
        };
        match nalix.query(&q) {
            Outcome::Translated(t) => {
                // evaluation must not error or panic
                prop_assert!(nalix.execute(&t).is_ok(), "{}", q);
            }
            Outcome::Rejected(r) => prop_assert!(!r.errors.is_empty(), "{}", q),
        }
    }

    // -----------------------------------------------------------------
    // Panic-free `answer`: arbitrary text — ASCII punctuation, digits,
    // accented Latin, curly quotes, CJK — either answers or returns a
    // typed QueryError whose rephrasing suggestion is non-empty (the
    // paper's Sec. 4 contract: never die, always say how to rephrase).
    // -----------------------------------------------------------------

    #[test]
    fn answer_never_panics_and_always_suggests(
        q in "[ ,.\"'?!a-zA-Z0-9à-ö‘-”一-丏]{0,60}",
    ) {
        let doc = nalix_repro::xmldb::datasets::movies::movies();
        let nalix = Nalix::new(doc.clone());
        match nalix.answer(&q) {
            Ok(_) => {}
            Err(e) => {
                prop_assert!(!e.suggestion().is_empty(), "{:?} -> {}", q, e);
                prop_assert!(!e.feedback().is_empty(), "{:?}", q);
                prop_assert!(!e.to_string().is_empty(), "{:?}", q);
            }
        }
    }

    // Near-English word salad drives the deeper pipeline stages the
    // fully-arbitrary generator rarely reaches.
    #[test]
    fn answer_never_panics_on_word_salad(
        words in proptest::collection::vec(
            prop_oneof![
                Just("Return".to_owned()),
                Just("Find".to_owned()),
                Just("the".to_owned()),
                Just("of".to_owned()),
                Just("every".to_owned()),
                Just("movie".to_owned()),
                Just("director".to_owned()),
                Just("is".to_owned()),
                Just("not".to_owned()),
                Just("and".to_owned()),
                Just("where".to_owned()),
                Just("more".to_owned()),
                Just("than".to_owned()),
                Just("1991".to_owned()),
                Just(",".to_owned()),
                Just("\u{201C}Traffic\u{201D}".to_owned()),
                "[a-zà-ö]{1,8}",
            ],
            1..14,
        )
    ) {
        let doc = nalix_repro::xmldb::datasets::movies::movies();
        let nalix = Nalix::new(doc.clone());
        let q = words.join(" ");
        if let Err(e) = nalix.answer(&q) {
            prop_assert!(!e.suggestion().is_empty(), "{:?} -> {}", q, e);
        }
    }

    // Conversational follow-ups: anaphor/ellipsis word salad resolved
    // against a real prior turn must never panic — only answer or fail
    // with a typed, suggestion-carrying error; and the same text with
    // no context must be the typed missing-context error when it is a
    // follow-up at all.
    #[test]
    fn follow_up_resolution_never_panics(
        words in proptest::collection::vec(
            prop_oneof![
                Just("Of".to_owned()),
                Just("those".to_owned()),
                Just("these".to_owned()),
                Just("them".to_owned()),
                Just("they".to_owned()),
                Just("what".to_owned()),
                Just("about".to_owned()),
                Just("which".to_owned()),
                Just("were".to_owned()),
                Just("directed".to_owned()),
                Just("by".to_owned()),
                Just("before".to_owned()),
                Just("after".to_owned()),
                Just("1991".to_owned()),
                Just(",".to_owned()),
                Just("?".to_owned()),
                "[a-zà-ö]{1,8}",
            ],
            0..12,
        )
    ) {
        let doc = nalix_repro::xmldb::datasets::movies::movies();
        let nalix = Nalix::new(doc.clone());
        let budget = nalix_repro::xquery::EvalBudget::default();
        let prior = nalix
            .answer_turn("Find all the movies directed by Ron Howard.", None, &budget)
            .expect("opening turn")
            .turn;
        let q = words.join(" ");
        if let Err(e) = nalix.answer_turn(&q, Some(&prior), &budget) {
            prop_assert!(!e.suggestion().is_empty(), "{:?} -> {}", q, e);
        }
        if nalix_repro::nalix::detect_follow_up(&q).is_some() {
            let err = nalix
                .answer_turn(&q, None, &budget)
                .expect_err("a follow-up with no context must fail");
            prop_assert_eq!(err.code(), "session.missing_context", "{:?}", q);
        }
    }
}

proptest! {
    // -----------------------------------------------------------------
    // Relational view vs. the arena's links
    // -----------------------------------------------------------------

    /// The SQL backend's interval tables, read from the arena's
    /// pre-keyed columns, agree with the links: same row count, and for
    /// every node the same parent, subtree extent (computed here by
    /// brute-force walk), label, and atomized string value.
    #[test]
    fn shredding_matches_the_arena_oracle(spec in tree_strategy()) {
        let doc = build(&spec);
        let shred = nalix_repro::relstore::Shredding::build(&doc);
        prop_assert_eq!(shred.len(), doc.len());
        for idx in 0..doc.len() {
            let n = NodeId::from_index(idx);
            let pre = doc.pre(n);
            match doc.parent(n) {
                Some(p) => prop_assert_eq!(shred.parent_pre(pre), doc.pre(p)),
                None => prop_assert_eq!(shred.parent_pre(pre), nalix_repro::relstore::NIL_PRE),
            }
            // Oracle extent: the largest pre rank in the subtree.
            let mut max_pre = pre;
            let mut stack: Vec<NodeId> = doc.children(n).collect();
            while let Some(c) = stack.pop() {
                max_pre = max_pre.max(doc.pre(c));
                stack.extend(doc.children(c));
            }
            prop_assert_eq!(shred.extent(pre), max_pre);
            if doc.node(n).is_element() {
                prop_assert_eq!(shred.label_of(pre), doc.label(n));
            }
            // Atomization follows the engine's mixed-content rule
            // (`Document::atom_value`), not the raw whole-subtree
            // string value.
            prop_assert_eq!(shred.atomize(pre), doc.atom_value(n).into_owned());
        }
    }
}

/// The one MLCA predicate against the definition oracle on every node
/// pair of the paper's movie datasets.
#[test]
fn mlca_matches_the_definition_oracle_on_the_movie_datasets() {
    use nalix_repro::xmldb::datasets::movies::{movies, movies_and_books};
    for doc in [movies(), movies_and_books()] {
        let all: Vec<NodeId> = (0..doc.len()).map(NodeId::from_index).collect();
        for &a in &all {
            for &b in &all {
                assert_eq!(
                    meaningfully_related(&doc, a, b),
                    mlca_oracle(&doc, a, b),
                    "mqf({a:?},{b:?})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shared value layer: `min`/`max` against the scan it replaced
// ---------------------------------------------------------------------

/// The general-comparison order `min`/`max` used before items were
/// atomized once per aggregate: both sides re-atomized per call, and
/// an unordered (NaN) pair read as equal.
fn pairwise_compare(doc: &Document, a: &Item, b: &Item) -> Ordering {
    let sa = a.atom_value(doc);
    let sb = b.atom_value(doc);
    let num = |item: &Item, s: &str| -> Option<f64> {
        match item {
            Item::Num(n) => Some(*n),
            Item::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => parse_finite(s),
        }
    };
    match (num(a, &sa), num(b, &sb)) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => sa.cmp(&sb),
    }
}

/// The pairwise scan: the first item, replaced by each later item that
/// compares strictly before (`min`) or after (`max`) the best so far.
fn pairwise_best(doc: &Document, func: AggFunc, seq: &[Item]) -> Vec<Item> {
    let want = if func == AggFunc::Min {
        Ordering::Less
    } else {
        Ordering::Greater
    };
    let Some(mut best) = seq.first() else {
        return vec![];
    };
    for item in &seq[1..] {
        if pairwise_compare(doc, item, best) == want {
            best = item;
        }
    }
    vec![best.clone()]
}

/// Cell texts: integers, decimals, numbers padded with whitespace, and
/// words, among them the empty string and words Rust's `f64` parser
/// reads as non-finite numbers.
fn cell_text() -> impl Strategy<Value = String> {
    const WORDS: [&str; 9] = [
        "", "apple", "Nan", "NaN", "inf", "-inf", "Infinity", "1a", "b",
    ];
    const PADS: [&str; 3] = [" ", "\t", "\n "];
    prop_oneof![
        (-40i64..40).prop_map(|n| n.to_string()),
        (-40i64..40, 0u8..100).prop_map(|(i, f)| format!("{i}.{f}")),
        (-40i64..40, 0..PADS.len(), 0..PADS.len())
            .prop_map(|(n, l, r)| format!("{}{n}{}", PADS[l], PADS[r])),
        (0..WORDS.len()).prop_map(|i| WORDS[i].to_owned()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A column mixes node, string and number items over those texts;
    /// a number item is the text's finite reading, or a computed NaN
    /// for a word. The shared `min`/`max` picks the very item the
    /// pairwise scan picked (compared by `Debug`, so a NaN pick and a
    /// pick among equal nodes both count).
    #[test]
    fn min_and_max_pick_what_the_pairwise_scan_picked(
        cells in proptest::collection::vec((0u8..3, cell_text()), 0..10),
    ) {
        let mut doc = Document::new("root");
        let root = doc.root();
        let mut seq = Vec::with_capacity(cells.len());
        for (kind, text) in &cells {
            seq.push(match kind {
                0 => {
                    let el = doc.add_element(root, "v");
                    if !text.is_empty() {
                        doc.add_text(el, text);
                    }
                    Item::Node(el)
                }
                1 => Item::Str(text.clone()),
                _ => Item::Num(parse_finite(text).unwrap_or(f64::NAN)),
            });
        }
        doc.finalize();
        for func in [AggFunc::Min, AggFunc::Max] {
            let shared = aggregate(&doc, func, &seq).unwrap();
            let pairwise = pairwise_best(&doc, func, &seq);
            prop_assert_eq!(format!("{shared:?}"), format!("{pairwise:?}"), "{func} of {seq:?}");
        }
    }
}
