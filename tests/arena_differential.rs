//! Differential tests for the columnar node arena: the linked-node
//! semantics (parent / first-child / next-sibling chains, walked one
//! link at a time) are the *oracle*, and every derived columnar
//! structure — preorder/postorder/depth columns, the document-order
//! table behind `descendants`, per-label postings, subtree extents,
//! string-heap-backed values — must agree with it bit for bit on
//! proptest-generated random documents.
//!
//! The linked view is trivially correct by construction (`add_element`
//! writes exactly those links); everything the `finalize` pass derives
//! from it is re-checked here against a fresh link walk.

use std::collections::BTreeSet;

use nalix_repro::xmldb::{Document, NodeId, NodeKind, SubtreeProbeCursor};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Random document generation: elements, attributes, text and *mixed*
// content (direct text next to element children), since atomization
// treats those shapes differently.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct TreeSpec {
    label: usize,
    attr: Option<u8>,
    text: Option<u8>,
    children: Vec<TreeSpec>,
}

const LABELS: [&str; 6] = ["lib", "shelf", "book", "title", "author", "note"];

fn tree_strategy() -> impl Strategy<Value = TreeSpec> {
    let leaf = (
        0..LABELS.len(),
        proptest::option::of(any::<u8>()),
        proptest::option::of(any::<u8>()),
    )
        .prop_map(|(label, attr, text)| TreeSpec {
            label,
            attr,
            text,
            children: vec![],
        });
    leaf.prop_recursive(4, 64, 5, |inner| {
        (
            0..LABELS.len(),
            proptest::option::of(any::<u8>()),
            proptest::option::of(any::<u8>()),
            proptest::collection::vec(inner, 0..5),
        )
            .prop_map(|(label, attr, text, children)| TreeSpec {
                label,
                attr,
                text,
                children,
            })
    })
}

fn build(spec: &TreeSpec) -> Document {
    fn add(doc: &mut Document, parent: NodeId, spec: &TreeSpec) {
        let el = doc.add_element(parent, LABELS[spec.label]);
        if let Some(a) = spec.attr {
            doc.add_attribute(el, "id", &format!("a{a}"));
        }
        // Text *before* the children: produces mixed content whenever
        // the node also has element children.
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

// ---------------------------------------------------------------------
// The linked-node oracle
// ---------------------------------------------------------------------

/// Every node reachable from `root` through first-child/next-sibling
/// links, in document order, with the depth the link walk observed.
/// Pure link chasing — no derived column is consulted.
fn oracle_preorder(doc: &Document, root: NodeId) -> Vec<(NodeId, u32)> {
    let mut out = Vec::new();
    let mut stack = vec![(root, 0u32)];
    while let Some((n, d)) = stack.pop() {
        out.push((n, d));
        // Children pushed in reverse so the stack pops them in order.
        let mut kids = Vec::new();
        let mut c = doc.first_child(n);
        while let Some(k) = c {
            kids.push(k);
            c = doc.next_sibling(k);
        }
        for &k in kids.iter().rev() {
            stack.push((k, d + 1));
        }
    }
    out
}

/// Whole-subtree text concatenation via links only.
fn oracle_subtree_text(doc: &Document, id: NodeId) -> String {
    oracle_preorder(doc, id)
        .iter()
        .filter(|&&(n, _)| doc.kind(n) == NodeKind::Text)
        .map(|&(n, _)| doc.value(n).unwrap_or_default())
        .collect()
}

/// Atomization oracle: text/attribute nodes carry their own value; an
/// element with non-whitespace direct text atomizes to that text
/// trimmed; any other element to its whole-subtree text.
fn oracle_atom(doc: &Document, id: NodeId) -> String {
    match doc.kind(id) {
        NodeKind::Text | NodeKind::Attribute => doc.value(id).unwrap_or_default().to_owned(),
        NodeKind::Element => {
            let mut direct = String::new();
            let mut c = doc.first_child(id);
            while let Some(k) = c {
                if doc.kind(k) == NodeKind::Text {
                    direct.push_str(doc.value(k).unwrap_or_default());
                }
                c = doc.next_sibling(k);
            }
            if !direct.trim().is_empty() {
                direct.trim().to_owned()
            } else {
                oracle_subtree_text(doc, id)
            }
        }
    }
}

fn all_nodes(doc: &Document) -> Vec<NodeId> {
    (0..doc.len()).map(NodeId::from_index).collect()
}

proptest! {
    // -----------------------------------------------------------------
    // Document order: the pre column and the order table behind
    // `descendants` both reproduce the link walk exactly.
    // -----------------------------------------------------------------

    #[test]
    fn preorder_column_matches_link_walk(spec in tree_strategy()) {
        let doc = build(&spec);
        let oracle = oracle_preorder(&doc, doc.root());
        prop_assert_eq!(oracle.len(), doc.len(), "link walk reaches every arena node");
        for (rank, &(n, depth)) in oracle.iter().enumerate() {
            prop_assert_eq!(doc.pre(n) as usize, rank, "pre[{n}]");
            prop_assert_eq!(doc.depth(n), depth, "depth[{n}]");
        }
        // descendants(root) is the same sequence, minus the root itself
        // (the axis is exclusive of its origin).
        let via_table: Vec<NodeId> = doc.descendants(doc.root()).collect();
        let via_links: Vec<NodeId> = oracle.iter().skip(1).map(|&(n, _)| n).collect();
        prop_assert_eq!(via_table, via_links);
    }

    #[test]
    fn postorder_column_encodes_subtree_containment(spec in tree_strategy()) {
        let doc = build(&spec);
        // Oracle containment: walk the parent chain.
        let contains = |anc: NodeId, desc: NodeId| {
            let mut cur = Some(desc);
            while let Some(n) = cur {
                if n == anc { return true; }
                cur = doc.parent(n);
            }
            false
        };
        let nodes = all_nodes(&doc);
        for &a in nodes.iter().step_by(3) {
            for &d in nodes.iter().step_by(5) {
                let by_numbers =
                    doc.pre(a) <= doc.pre(d) && doc.post(a) >= doc.post(d);
                prop_assert_eq!(by_numbers, contains(a, d), "pre/post vs links for {a},{d}");
                prop_assert_eq!(doc.is_ancestor_or_self(a, d), contains(a, d));
            }
        }
    }

    // -----------------------------------------------------------------
    // Axes: children / ancestors / descendants against raw link chains.
    // -----------------------------------------------------------------

    #[test]
    fn axis_iterators_match_link_chains(spec in tree_strategy()) {
        let doc = build(&spec);
        for n in all_nodes(&doc) {
            let mut chain = Vec::new();
            let mut c = doc.first_child(n);
            while let Some(k) = c {
                chain.push(k);
                c = doc.next_sibling(k);
            }
            let via_axis: Vec<NodeId> = doc.children(n).collect();
            prop_assert_eq!(via_axis, chain, "children({n})");

            let mut parents = Vec::new();
            let mut p = doc.parent(n);
            while let Some(a) = p {
                parents.push(a);
                p = doc.parent(a);
            }
            let via_axis: Vec<NodeId> = doc.ancestors(n).collect();
            prop_assert_eq!(via_axis, parents, "ancestors({n})");

            let via_links: Vec<NodeId> = oracle_preorder(&doc, n)
                .iter()
                .skip(1)
                .map(|&(d, _)| d)
                .collect();
            let via_extent: Vec<NodeId> = doc.descendants(n).collect();
            prop_assert_eq!(via_extent, via_links, "descendants({n})");
        }
    }

    // -----------------------------------------------------------------
    // Subtree extents and per-label postings: `labeled_in_subtree` (and
    // its cursor-hinted variant) equals a filtered link walk.
    // -----------------------------------------------------------------

    #[test]
    fn label_postings_match_filtered_link_walk(spec in tree_strategy()) {
        let doc = build(&spec);
        let mut cursors: Vec<SubtreeProbeCursor> =
            LABELS.iter().map(|_| SubtreeProbeCursor::default()).collect();
        for n in all_nodes(&doc) {
            for (li, label) in LABELS.iter().enumerate() {
                let Some(sym) = doc.lookup(label) else { continue };
                let expect: Vec<NodeId> = oracle_preorder(&doc, n)
                    .iter()
                    .map(|&(d, _)| d)
                    .filter(|&d| doc.kind(d) == NodeKind::Element && doc.label(d) == *label)
                    .collect();
                let plain: Vec<NodeId> = doc.labeled_in_subtree(sym, n).to_vec();
                prop_assert_eq!(&plain, &expect, "labeled_in_subtree({label}, {n})");
                // The cursor variant must agree for *any* hint state; here
                // the cursors carry whatever the previous probes left.
                let hinted: Vec<NodeId> =
                    doc.labeled_in_subtree_from(sym, n, &mut cursors[li]).to_vec();
                prop_assert_eq!(&hinted, &expect, "labeled_in_subtree_from({label}, {n})");
                prop_assert_eq!(
                    doc.count_label_in_subtree(sym, n),
                    expect.len(),
                    "count_label_in_subtree({label}, {n})"
                );
            }
        }
        // The global per-label postings are the document-order filter.
        for label in LABELS {
            let expect: Vec<NodeId> = oracle_preorder(&doc, doc.root())
                .iter()
                .map(|&(d, _)| d)
                .filter(|&d| doc.kind(d) == NodeKind::Element && doc.label(d) == label)
                .collect();
            prop_assert_eq!(doc.nodes_labeled(label).to_vec(), expect, "nodes_labeled({label})");
        }
    }

    // -----------------------------------------------------------------
    // Values: string_value / atom_value against link-walk oracles.
    // -----------------------------------------------------------------

    #[test]
    fn values_match_link_walk_oracles(spec in tree_strategy()) {
        let doc = build(&spec);
        for n in all_nodes(&doc) {
            match doc.kind(n) {
                NodeKind::Text | NodeKind::Attribute => {
                    prop_assert_eq!(
                        doc.string_value(n),
                        doc.value(n).unwrap_or_default().to_owned()
                    );
                }
                NodeKind::Element => {
                    prop_assert_eq!(
                        doc.string_value(n),
                        oracle_subtree_text(&doc, n),
                        "string_value({n})"
                    );
                }
            }
            prop_assert_eq!(doc.atom_value(n).into_owned(), oracle_atom(&doc, n), "atom_value({n})");
        }
    }

    // -----------------------------------------------------------------
    // LCA: the climb over the pre-keyed columns equals the first common
    // node of the two link-walked ancestor chains.
    // -----------------------------------------------------------------

    #[test]
    fn indexed_lca_matches_link_walk(spec in tree_strategy()) {
        let doc = build(&spec);
        let nodes = all_nodes(&doc);
        let chain = |n: NodeId| -> Vec<NodeId> {
            std::iter::once(n).chain(doc.ancestors(n)).collect()
        };
        for &a in nodes.iter().step_by(2) {
            for &b in nodes.iter().step_by(3) {
                let on_b = chain(b);
                let oracle = chain(a).into_iter().find(|x| on_b.contains(x));
                prop_assert_eq!(Some(doc.lca(a, b)), oracle, "lca({a},{b})");
            }
        }
    }

    // -----------------------------------------------------------------
    // Serialization round-trip: the rebuilt document derives identical
    // columns for an isomorphic tree (labels + kinds + order).
    // -----------------------------------------------------------------

    #[test]
    fn reparse_preserves_document_order_signature(spec in tree_strategy()) {
        let doc = build(&spec);
        let xml = doc.to_xml(doc.root());
        let doc2 = Document::parse_str(&xml).expect("round-trip parse");
        let sig = |d: &Document| -> Vec<(String, u8, u32)> {
            let mut rows: Vec<(String, u8, u32)> = (0..d.len())
                .map(NodeId::from_index)
                .map(|n| (d.label(n).to_owned(), d.kind(n) as u8, d.depth(n)))
                .collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(sig(&doc), sig(&doc2));
        // Element labels in document order survive exactly.
        let ordered = |d: &Document| -> Vec<String> {
            d.descendants(d.root())
                .filter(|&n| d.kind(n) == NodeKind::Element)
                .map(|n| d.label(n).to_owned())
                .collect()
        };
        prop_assert_eq!(ordered(&doc), ordered(&doc2));
    }
}

/// The subtree sets implied by pre/post extents partition correctly:
/// each node's descendant set is exactly the contiguous pre-range —
/// checked on a fixed document with attributes and mixed content, where
/// the extent boundaries are easy to get wrong.
#[test]
fn extents_are_contiguous_pre_ranges() {
    let doc = Document::parse_str(
        "<bib><book id=\"b1\"><title>T1</title><author>A</author></book>\
         <year>2000 <note>mixed</note></year><book><title>T2</title></book></bib>",
    )
    .expect("parse");
    for n in all_nodes(&doc) {
        // The axis excludes `n` itself, so the set starts at pre(n)+1.
        let set: BTreeSet<u32> = doc.descendants(n).map(|d| doc.pre(d)).collect();
        let lo = doc.pre(n) + 1;
        let hi = *set.iter().next_back().unwrap_or(&doc.pre(n));
        let expect: BTreeSet<u32> = (lo..=hi).collect();
        assert_eq!(set, expect, "descendant pre-set of {n} is contiguous");
    }
}
