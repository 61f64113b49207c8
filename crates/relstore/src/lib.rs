#![warn(missing_docs)]
// The view backs the SQL query path end to end; a panic here would
// take down whole server requests, so the escape hatches are denied
// exactly as in the other serving-path crates.
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

//! # relstore — the relational view of an [`xmldb::Document`]
//!
//! The SQL translation backend (see `docs/BACKENDS.md`) evaluates over
//! *tables*, not over the node arena. This crate presents any finalized
//! document as those tables without copying it: a [`Shredding`] borrows
//! the document and reads the columns the arena already keeps, keyed by
//! pre rank.
//!
//! - **`node(pre, parent_pre, extent, label_id)`** — one row per live
//!   node; the row index *is* the pre rank, and every subtree is the
//!   contiguous row interval `[pre, extent(pre)]`, so containment joins
//!   are two integer comparisons. `parent_pre` and `extent` are the
//!   document's pre-keyed columns ([`Document::parent_pres`],
//!   [`Document::extents`]); `label_id` is the document's label
//!   [`Symbol`].
//! - **`value(pre, text)`** — the atomized value of a row, which is the
//!   engine's own [`Document::atom_value`].
//! - **per-label postings** — the sorted pres carrying each label, which
//!   are the label postings' pre column ([`Document::label_pres`]).
//!
//! The view owns no per-node data, so building one is O(1) and the view
//! of an updated document is simply the view of the successor. The MLCA
//! predicate behind SQL's `mqf` is the engine's own, in `xquery::mlca`.

use std::borrow::Cow;
use xmldb::{Document, Symbol, UpdateStats};

/// `parent_pre` of the root row (no parent).
pub const NIL_PRE: u32 = u32::MAX;

/// The relational view of one finalized document (see the crate docs).
/// It borrows the document and owns nothing per node.
#[derive(Debug, Clone)]
pub struct Shredding<'d> {
    doc: &'d Document,
    parent: &'d [u32],
    extent: &'d [u32],
}

impl<'d> Shredding<'d> {
    /// The view of `doc`. O(1): it borrows the document's columns.
    pub fn build(doc: &'d Document) -> Self {
        Shredding {
            doc,
            parent: doc.parent_pres(),
            extent: doc.extents(),
        }
    }

    /// The view of the successor document of a node-level update. The
    /// view keeps nothing to carry forward, so this is the view of
    /// `doc`.
    pub fn successor<'n>(&self, doc: &'n Document, _stats: &UpdateStats) -> Shredding<'n> {
        Shredding::build(doc)
    }

    /// The document the view reads.
    pub fn doc(&self) -> &'d Document {
        self.doc
    }

    /// Rows of the `node` table: the document's live nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the document is not finalized.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// `parent_pre` of the row at `pre` ([`NIL_PRE`] for the root or
    /// out-of-range rows).
    pub fn parent_pre(&self, pre: u32) -> u32 {
        self.parent.get(pre as usize).copied().unwrap_or(NIL_PRE)
    }

    /// Largest pre inside the subtree of the row at `pre` (the subtree
    /// is rows `pre..=extent(pre)`).
    pub fn extent(&self, pre: u32) -> u32 {
        self.extent.get(pre as usize).copied().unwrap_or(pre)
    }

    /// Label name of the row at `pre` (empty for out-of-range rows).
    pub fn label_of(&self, pre: u32) -> &'d str {
        self.doc.node_at_pre(pre).map_or("", |n| self.doc.label(n))
    }

    /// Dictionary lookup: label name → id.
    pub fn lookup_label(&self, name: &str) -> Option<Symbol> {
        self.doc.lookup(name)
    }

    /// The sorted pres carrying `label`.
    pub fn postings(&self, label: Symbol) -> &'d [u32] {
        self.doc.label_pres(label)
    }

    /// Containment: is the row at `inner` inside the subtree of the row
    /// at `outer`, the row itself included? Two integer comparisons on
    /// the interval columns.
    pub fn contains_or_self(&self, outer: u32, inner: u32) -> bool {
        outer <= inner && inner <= self.extent(outer)
    }

    /// Count of rows with `label` inside the subtree of `root`
    /// (inclusive): two binary searches over the label's postings.
    pub fn count_label_in_subtree(&self, label: Symbol, root: u32) -> usize {
        let p = self.postings(label);
        let hi = self.extent(root);
        p.partition_point(|&pre| pre <= hi) - p.partition_point(|&pre| pre < root)
    }

    /// The atomized string value of the row at `pre`, with exactly the
    /// engine's semantics ([`Document::atom_value`]): text and
    /// attribute rows yield their own text; an element with
    /// non-whitespace *direct* text yields that text trimmed (mixed
    /// content); any other element yields the concatenation of every
    /// text row in its subtree, in pre order, untrimmed.
    pub fn atomize(&self, pre: u32) -> Cow<'d, str> {
        self.doc
            .node_at_pre(pre)
            .map_or(Cow::Borrowed(""), |n| self.doc.atom_value(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb::{CommitStrategy, Edit};

    fn doc(xml: &str) -> Document {
        Document::parse_str(xml).unwrap()
    }

    #[test]
    fn build_matches_arena_oracle() {
        let d = doc("<bib><book id=\"1\"><title>A</title><price>10</price></book><book><title>B</title></book></bib>");
        let s = Shredding::build(&d);
        assert_eq!(s.len(), d.len());
        for pre in 0..d.len() as u32 {
            let id = d.node_at_pre(pre).unwrap();
            assert_eq!(
                s.parent_pre(pre),
                d.parent(id).map(|p| d.pre(p)).unwrap_or(NIL_PRE),
                "parent at {pre}"
            );
            assert_eq!(s.label_of(pre), d.label(id), "label at {pre}");
            assert_eq!(s.atomize(pre), d.atom_value(id), "atom at {pre}");
        }
        let count = |l: &str| s.lookup_label(l).map_or(0, |id| s.postings(id).len());
        assert_eq!(count("book"), 2);
        assert_eq!(count("title"), 2);
        assert_eq!(count("nope"), 0);
    }

    #[test]
    fn extents_cover_subtrees() {
        let d = doc("<a><b><c/><d/></b><e/></a>");
        let s = Shredding::build(&d);
        // root subtree covers everything
        assert_eq!(s.extent(0), s.len() as u32 - 1);
        for pre in 0..s.len() as u32 {
            for q in 0..s.len() as u32 {
                let id = d.node_at_pre(pre).unwrap();
                let qid = d.node_at_pre(q).unwrap();
                let oracle = d.pre(id) <= d.pre(qid) && d.post(qid) <= d.post(id);
                assert_eq!(s.contains_or_self(pre, q), oracle, "{pre} contains {q}");
            }
        }
    }

    #[test]
    fn mixed_content_atomizes_to_trimmed_direct_text() {
        let d = doc("<r><year>2000 <movie><title>T</title></movie></year></r>");
        let s = Shredding::build(&d);
        let year = d.nodes_labeled("year")[0];
        assert_eq!(s.atomize(d.pre(year)), "2000");
        assert_eq!(s.atomize(d.pre(year)), d.atom_value(year));
    }

    #[test]
    fn element_without_direct_text_concatenates_subtree() {
        let d = doc("<r><book><title>T</title><author>A</author></book></r>");
        let s = Shredding::build(&d);
        let book = d.nodes_labeled("book")[0];
        assert_eq!(s.atomize(d.pre(book)), "TA");
    }

    /// A delete leaves the detached subtree in its arena slots, so
    /// `Document::len` overcounts the live nodes; the view's rows must
    /// be exactly the live ones on either commit path.
    #[test]
    fn deletes_leave_no_gap_rows() {
        let books = "<book><title>A</title></book><book><title>B</title></book>";
        let cases = [
            (format!("<bib>{books}</bib>"), CommitStrategy::Rebuild),
            (
                format!("<bib>{books}<note>1</note><note>2</note><note>3</note></bib>"),
                CommitStrategy::Patch,
            ),
        ];
        for (xml, strategy) in cases {
            let d = doc(&xml);
            let mut tx = d.begin_update().unwrap();
            let book = d.nodes_labeled("book")[0];
            tx.apply(&Edit::DeleteSubtree { target: book }).unwrap();
            let (next, stats) = tx.commit();
            assert_eq!(stats.strategy, strategy);
            let view = Shredding::build(&d).successor(&next, &stats);
            let oracle = doc(&next.to_xml(next.root()));
            assert_eq!(view.len(), oracle.len(), "{strategy:?}");
            for pre in 0..view.len() as u32 {
                let label = view.label_of(pre);
                assert_ne!(label, "#gap", "{strategy:?}");
                assert_eq!(label, oracle.label(oracle.node_at_pre(pre).unwrap()));
                assert!(view.contains_or_self(0, pre), "row {pre} ({strategy:?})");
            }
        }
    }
}
