//! Tree navigation: children, descendants, ancestors, subtree tests and
//! lowest common ancestors.
//!
//! These are the structural primitives beneath the XQuery engine's path
//! steps, the postings probes of the MLCA (meaningful lowest common
//! ancestor) predicate in crate `xquery`, and the Meet operator of the
//! keyword-search baseline. Containment tests use pre/post-order ranks,
//! so they are O(1).
//!
//! The structural index is two pre-keyed columns built by
//! [`Document::finalize`]: each node's parent and the last pre rank of
//! its subtree ([`Document::parent_pres`], [`Document::extents`]). One
//! climb over them answers every LCA-shaped question: [`lca_pre`] climbs
//! from one node until the subtree reached covers the other, which
//! gives the LCA and the first node's path child, and
//! [`child_toward_pre`] climbs from a node until its parent is a given
//! ancestor. [`Document::lca`], [`Document::child_toward`] and the MLCA
//! predicate in crate `xquery` all call these two functions. Each climb
//! is O(depth), which on the shallow documents here reads fewer cache
//! lines than an O(1) range-minimum index would.
//!
//! Since the columnar-arena refactor the bulk axes are linear sweeps:
//! descendants of a finalized node iterate a contiguous slice of the
//! document-order table, and subtree label probes binary-search the
//! label's packed pre-rank column — no per-step node loads.

use crate::arena::NIL;
use crate::document::Document;
use crate::node::{NodeId, NodeKind};

impl Document {
    /// Iterator over the direct children of `id`, in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.arena.first_child[id.index()],
        }
    }

    /// Iterator over the element children of `id` (skipping text and
    /// attribute nodes), in document order.
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .filter(move |&c| self.arena.kinds[c.index()] == NodeKind::Element)
    }

    /// Iterator over all descendants of `id` in pre-order, excluding `id`
    /// itself.
    ///
    /// On a finalized document this is a linear sweep over the
    /// subtree's contiguous slice of the document-order table; before
    /// finalization it falls back to an explicit-stack link walk.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        let lo = self.arena.pre[id.index()];
        if let Some(&hi) = self.subtree_hi.get(lo as usize) {
            // Skip `id` itself: its pre rank is `lo`.
            return Descendants {
                doc: self,
                sweep: Some(lo as usize + 1..hi as usize + 1),
                stack: Vec::new(),
            };
        }
        let mut stack = Vec::new();
        let mut c = self.arena.first_child[id.index()];
        let mut tmp = Vec::new();
        while c != NIL {
            tmp.push(c);
            c = self.arena.next_sibling[c as usize];
        }
        stack.extend(tmp.into_iter().rev());
        Descendants {
            doc: self,
            sweep: None,
            stack,
        }
    }

    /// Iterator over `id`'s ancestors, nearest first, excluding `id`.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            next: self.arena.parent[id.index()],
        }
    }

    /// True iff `anc` is `desc` or an ancestor of `desc` (O(1), uses
    /// pre/post ranks — document must be finalized).
    #[inline]
    pub fn is_ancestor_or_self(&self, anc: NodeId, desc: NodeId) -> bool {
        let (a, d) = (anc.index(), desc.index());
        debug_assert!(self.arena.pre[a] != NIL && self.arena.pre[d] != NIL);
        self.arena.pre[a] <= self.arena.pre[d] && self.arena.post[a] >= self.arena.post[d]
    }

    /// True iff `anc` is a *proper* ancestor of `desc`.
    #[inline]
    pub fn is_proper_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        anc != desc && self.is_ancestor_or_self(anc, desc)
    }

    /// Lowest common ancestor of two nodes: [`lca_pre`] over the
    /// document's columns. Total: every pair of live nodes has an LCA
    /// (at worst the root), and the root also stands in for the
    /// undefined cases (an unfinalized document, a node an update
    /// detached). O(depth).
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        obs::count_hot(obs::Counter::LcaQueries, 1);
        lca_pre(&self.parent_pre, &self.subtree_hi, self.pre(a), self.pre(b))
            .and_then(|(c, _)| self.node_at_pre(c))
            .unwrap_or(self.root())
    }

    /// LCA of a non-empty set of nodes.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn lca_all(&self, nodes: &[NodeId]) -> NodeId {
        assert!(!nodes.is_empty(), "lca_all of empty set");
        nodes[1..].iter().fold(nodes[0], |acc, &n| self.lca(acc, n))
    }

    /// The child of `anc` that lies on the path from `anc` down to
    /// `desc`; `None` when `anc` is not a proper ancestor of `desc`.
    ///
    /// This is the key step of the MLCA "exclusivity" test: a node `x`
    /// has `lca(x, desc)` strictly below `anc` iff `x` lies in the
    /// subtree of this child. [`child_toward_pre`] over the parent
    /// column, O(depth).
    pub fn child_toward(&self, anc: NodeId, desc: NodeId) -> Option<NodeId> {
        obs::count_hot(obs::Counter::ChildTowardQueries, 1);
        child_toward_pre(&self.parent_pre, self.pre(anc), self.pre(desc))
            .and_then(|c| self.node_at_pre(c))
    }

    /// Count of nodes with label `sym` inside the subtree rooted at
    /// `root` (inclusive). Uses binary search over the label's packed
    /// pre-rank column: O(log n).
    pub fn count_label_in_subtree(&self, sym: crate::interner::Symbol, root: NodeId) -> usize {
        self.labeled_in_subtree(sym, root).len()
    }

    /// The nodes with label `sym` inside the subtree rooted at `root`
    /// (inclusive), as a document-ordered slice of the label index.
    /// O(log n) to locate; the slice itself is borrowed, not copied.
    ///
    /// The binary search runs over the postings' contiguous `pres`
    /// column — pure 4-byte loads, no node records touched.
    pub fn labeled_in_subtree(&self, sym: crate::interner::Symbol, root: NodeId) -> &[NodeId] {
        obs::count_hot(obs::Counter::SubtreeProbes, 1);
        let Some(p) = self.postings_for(sym) else {
            return &[];
        };
        let (lo, hi) = self.subtree_pre_range(root);
        let start = p.pres.partition_point(|&pre| pre < lo);
        let end = p.pres.partition_point(|&pre| pre <= hi);
        &p.ids[start..end]
    }

    /// Does any node with label `sym` occur in the subtree rooted at
    /// `root` (inclusive)?
    pub fn label_occurs_in_subtree(&self, sym: crate::interner::Symbol, root: NodeId) -> bool {
        self.count_label_in_subtree(sym, root) > 0
    }

    /// Cursor-accelerated [`Document::labeled_in_subtree`]: identical
    /// result, but the search starts from where the cursor's previous
    /// probe of the *same label* ended, galloping outward. Sweeps that
    /// probe many subtrees in (roughly) document order — the per-anchor
    /// partner enumeration of an `mqf()` join is the motivating one —
    /// pay O(log distance) per probe instead of O(log n), which in
    /// practice means a handful of adjacent cache lines instead of a
    /// cold binary search over a multi-megabyte postings column.
    pub fn labeled_in_subtree_from(
        &self,
        sym: crate::interner::Symbol,
        root: NodeId,
        cursor: &mut SubtreeProbeCursor,
    ) -> &[NodeId] {
        let Some(p) = self.postings_for(sym) else {
            return &[];
        };
        let (lo, hi) = self.subtree_pre_range(root);
        &p.ids[cursor.range(&p.pres, lo, hi)]
    }

    /// The pre-order rank interval `[lo, hi]` covering exactly the
    /// subtree of `root`. O(1) on a finalized document (the extent is
    /// precomputed), O(depth) otherwise.
    fn subtree_pre_range(&self, root: NodeId) -> (u32, u32) {
        let lo = self.arena.pre[root.index()];
        if let Some(&hi) = self.subtree_hi.get(lo as usize) {
            return (lo, hi);
        }
        // The subtree of root is a contiguous pre-order interval; its end
        // is found from the next node after the subtree. Walk to the next
        // sibling of the nearest ancestor that has one.
        let mut cur = root.index();
        loop {
            let sib = self.arena.next_sibling[cur];
            if sib != NIL {
                return (lo, self.arena.pre[sib as usize] - 1);
            }
            match self.arena.parent[cur] {
                NIL => return (lo, (self.len() - 1) as u32),
                p => cur = p as usize,
            }
        }
    }
}

/// The lowest common ancestor of the nodes at pre ranks `a` and `b`,
/// with `a`'s path child: the climb from `a` up the `parent` column
/// stops at the first node whose `extent` covers `b`, which is the LCA,
/// and the node it passed last is the child of the LCA towards `a`
/// (`None` when `a` is itself the LCA). The columns are
/// [`Document::parent_pres`] and [`Document::extents`].
///
/// `None` when `a` or `b` is not a live pre rank. O(depth of `a` below
/// the LCA).
#[inline]
pub fn lca_pre(parent: &[u32], extent: &[u32], a: u32, b: u32) -> Option<(u32, Option<u32>)> {
    let (mut c, mut child) = (a, None);
    loop {
        // The root's parent entry is `NIL`, which has no extent: the
        // climb ends there when nothing covered `b`.
        let hi = *extent.get(c as usize)?;
        if c <= b && b <= hi {
            return Some((c, child));
        }
        child = Some(c);
        c = *parent.get(c as usize)?;
    }
}

/// The child of the node at pre rank `anc` on the path down to the node
/// at pre rank `desc`: the climb from `desc` up the `parent` column
/// ([`Document::parent_pres`]) stops at the node whose parent is `anc`.
/// `None` when `anc` is not a proper ancestor of `desc`. O(depth of
/// `desc` below `anc`).
#[inline]
pub fn child_toward_pre(parent: &[u32], anc: u32, desc: u32) -> Option<u32> {
    let mut x = desc;
    // Ancestors precede their descendants in pre order, so nothing at
    // or before `anc` has it as an ancestor. Past the root the climb
    // reaches `NIL`, which has no parent entry.
    while x > anc {
        let p = *parent.get(x as usize)?;
        if p == anc {
            return Some(x);
        }
        x = p;
    }
    None
}

/// Remembered position inside one label's postings, carried between
/// successive probes of them ([`Document::labeled_in_subtree_from`],
/// [`SubtreeProbeCursor::any`]).
///
/// A cursor is only a performance hint — any value (including the
/// default) yields correct results — and it is only meaningful for the
/// label it was last used with; keep one cursor per label.
#[derive(Debug, Default, Clone, Copy)]
pub struct SubtreeProbeCursor {
    pos: Option<usize>,
}

impl SubtreeProbeCursor {
    /// The index range of the entries of the ascending `pres` (a label's
    /// [`Document::label_pres`]) that lie in the pre interval
    /// `[lo, hi]` — for a subtree root `lo`, the label's nodes inside
    /// its subtree.
    pub fn range(&mut self, pres: &[u32], lo: u32, hi: u32) -> std::ops::Range<usize> {
        let start = self.seek(pres, lo);
        start..start + gallop_lower_bound(&pres[start..], hi + 1, 0)
    }

    /// Does any entry of the ascending `pres` lie in `[lo, hi]`? The
    /// probe of [`SubtreeProbeCursor::range`] without locating the
    /// range's end.
    pub fn any(&mut self, pres: &[u32], lo: u32, hi: u32) -> bool {
        let start = self.seek(pres, lo);
        pres.get(start).is_some_and(|&p| p <= hi)
    }

    /// The first index of `pres` at or above `lo`: a binary search for
    /// a fresh cursor, otherwise a gallop from where the previous probe
    /// started. Leaves the cursor there.
    fn seek(&mut self, pres: &[u32], lo: u32) -> usize {
        obs::count_hot(obs::Counter::SubtreeProbes, 1);
        let start = match self.pos {
            Some(hint) => gallop_lower_bound(pres, lo, hint),
            None => pres.partition_point(|&p| p < lo),
        };
        self.pos = Some(start);
        start
    }
}

/// First index `i` of sorted `pres` with `pres[i] >= target`, found by
/// galloping outward from `hint`: O(log |i - hint|) comparisons, and
/// mostly-sequential memory traffic when the hint is near the answer.
/// Equivalent to `pres.partition_point(|&p| p < target)` for any hint.
fn gallop_lower_bound(pres: &[u32], target: u32, hint: usize) -> usize {
    let n = pres.len();
    let h = hint.min(n);
    let (lo, hi) = if h < n && pres[h] < target {
        // Answer lies right of the hint: double the step until we
        // overshoot, keeping `pres[lo] < target`.
        let mut step = 1usize;
        let mut lo = h;
        let mut hi = h + 1;
        while hi < n && pres[hi] < target {
            lo = hi;
            step <<= 1;
            hi = hi.saturating_add(step);
        }
        (lo, hi.min(n))
    } else {
        // Answer lies at or left of the hint, keeping `pres[hi] >=
        // target` (or `hi == n`).
        let mut step = 1usize;
        let mut hi = h;
        let mut lo = hi.saturating_sub(1);
        while lo > 0 && pres[lo] >= target {
            hi = lo;
            step <<= 1;
            lo = lo.saturating_sub(step);
        }
        (lo, hi)
    };
    lo + pres[lo..hi].partition_point(|&p| p < target)
}

/// Iterator over direct children. See [`Document::children`].
pub struct Children<'a> {
    doc: &'a Document,
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        if self.next == NIL {
            return None;
        }
        let cur = self.next;
        self.next = self.doc.arena.next_sibling[cur as usize];
        Some(NodeId(cur))
    }
}

/// Iterator over descendants in pre-order. See [`Document::descendants`].
///
/// Finalized documents use the `sweep` range over the document-order
/// table (contiguous, allocation-free); the `stack` path is the
/// pre-finalization link walk.
pub struct Descendants<'a> {
    doc: &'a Document,
    sweep: Option<std::ops::Range<usize>>,
    stack: Vec<u32>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        if let Some(range) = &mut self.sweep {
            let r = range.next()?;
            return Some(NodeId(self.doc.order[r]));
        }
        let cur = self.stack.pop()?;
        let mut c = self.doc.arena.first_child[cur as usize];
        let mut kids = Vec::new();
        while c != NIL {
            kids.push(c);
            c = self.doc.arena.next_sibling[c as usize];
        }
        self.stack.extend(kids.into_iter().rev());
        Some(NodeId(cur))
    }
}

/// Iterator over ancestors, nearest first. See [`Document::ancestors`].
pub struct Ancestors<'a> {
    doc: &'a Document,
    next: u32,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        if self.next == NIL {
            return None;
        }
        let cur = self.next;
        self.next = self.doc.arena.parent[cur as usize];
        Some(NodeId(cur))
    }
}

#[cfg(test)]
mod tests {
    use super::{child_toward_pre, lca_pre};
    use crate::document::Document;
    use crate::NodeId;

    /// movies ─ movie ─ (title, director) ×3, two movies share a year
    /// grouping element, mirroring the paper's Figure 1 shape.
    fn fig1ish() -> Document {
        let mut d = Document::new("movies");
        let root = d.root();
        let y0 = d.add_element(root, "year");
        d.add_text(y0, "2000");
        let m1 = d.add_element(y0, "movie");
        d.add_leaf(m1, "title", "Traffic");
        d.add_leaf(m1, "director", "Steven Soderbergh");
        let m2 = d.add_element(y0, "movie");
        d.add_leaf(m2, "title", "How the Grinch Stole Christmas");
        d.add_leaf(m2, "director", "Ron Howard");
        let y1 = d.add_element(root, "year");
        d.add_text(y1, "2001");
        let m3 = d.add_element(y1, "movie");
        d.add_leaf(m3, "title", "A Beautiful Mind");
        d.add_leaf(m3, "director", "Ron Howard");
        d.finalize();
        d
    }

    #[test]
    fn children_in_document_order() {
        let d = fig1ish();
        let years: Vec<_> = d.element_children(d.root()).collect();
        assert_eq!(years.len(), 2);
        assert_eq!(d.direct_text(years[0]), "2000");
        assert_eq!(d.direct_text(years[1]), "2001");
    }

    #[test]
    fn descendants_preorder() {
        let d = fig1ish();
        let all: Vec<_> = d.descendants(d.root()).collect();
        // every node except the root
        assert_eq!(all.len(), d.len() - 1);
        // pre-order is strictly increasing
        for w in all.windows(2) {
            assert!(d.node(w[0]).pre < d.node(w[1]).pre);
        }
    }

    /// `id` and its ancestors, nearest first, over the arena's link
    /// column: the definition oracles below share no code with the
    /// pre-rank climb.
    fn chain(d: &Document, id: NodeId) -> Vec<NodeId> {
        std::iter::once(id).chain(d.ancestors(id)).collect()
    }

    /// LCA by definition: the first node of `a`'s chain on `b`'s chain.
    fn lca_oracle(d: &Document, a: NodeId, b: NodeId) -> NodeId {
        let on_b = chain(d, b);
        chain(d, a).into_iter().find(|x| on_b.contains(x)).unwrap()
    }

    /// Path child by definition: the node of `desc`'s chain whose
    /// parent is `anc`.
    fn child_toward_oracle(d: &Document, anc: NodeId, desc: NodeId) -> Option<NodeId> {
        chain(d, desc)
            .into_iter()
            .find(|&x| d.parent(x) == Some(anc))
    }

    #[test]
    fn descendants_sweep_matches_link_walk() {
        // The same tree twice: one with its extent column (order-table
        // sweep), one without (link-walk fallback) — identical
        // sequences, for every possible subtree root.
        let fin = fig1ish();
        let mut raw = fig1ish();
        raw.subtree_hi.clear(); // forces the stack path
        for i in 0..fin.len() {
            let id = crate::NodeId::from_index(i);
            let a: Vec<_> = fin.descendants(id).collect();
            let b: Vec<_> = raw.descendants(id).collect();
            assert_eq!(a, b, "descendants diverge at node {id}");
        }
    }

    #[test]
    fn ancestors_nearest_first() {
        let d = fig1ish();
        let t = d.nodes_labeled("title")[0];
        let anc: Vec<String> = d.ancestors(t).map(|a| d.label(a).to_owned()).collect();
        assert_eq!(anc, vec!["movie", "year", "movies"]);
    }

    #[test]
    fn ancestor_tests() {
        let d = fig1ish();
        let m = d.nodes_labeled("movie")[0];
        let t = d.nodes_labeled("title")[0];
        assert!(d.is_proper_ancestor(m, t));
        assert!(d.is_ancestor_or_self(m, m));
        assert!(!d.is_proper_ancestor(m, m));
        assert!(!d.is_proper_ancestor(t, m));
    }

    #[test]
    fn lca_within_one_movie() {
        let d = fig1ish();
        let t = d.nodes_labeled("title")[0];
        let dir = d.nodes_labeled("director")[0];
        let lca = d.lca(t, dir);
        assert_eq!(d.label(lca), "movie");
    }

    #[test]
    fn lca_across_years_is_root() {
        let d = fig1ish();
        let t0 = d.nodes_labeled("title")[0]; // year 2000
        let t2 = d.nodes_labeled("title")[2]; // year 2001
        assert_eq!(d.lca(t0, t2), d.root());
    }

    #[test]
    fn lca_with_ancestor_argument() {
        let d = fig1ish();
        let m = d.nodes_labeled("movie")[0];
        let t = d.nodes_labeled("title")[0];
        assert_eq!(d.lca(m, t), m);
        assert_eq!(d.lca(t, m), m);
        assert_eq!(d.lca(t, t), t);
    }

    #[test]
    fn lca_all_of_three() {
        let d = fig1ish();
        let titles = d.nodes_labeled("title");
        let lca = d.lca_all(titles);
        assert_eq!(lca, d.root());
    }

    #[test]
    fn child_toward_walks_path() {
        let d = fig1ish();
        let t = d.nodes_labeled("title")[0];
        let step = d.child_toward(d.root(), t).unwrap();
        assert_eq!(d.label(step), "year");
        let m = d.nodes_labeled("movie")[0];
        assert_eq!(d.child_toward(m, t).unwrap(), t);
        assert!(d.child_toward(t, m).is_none());
        assert!(d.child_toward(t, t).is_none());
    }

    #[test]
    fn count_label_in_subtree() {
        let d = fig1ish();
        let title = d.lookup("title").unwrap();
        let years: Vec<_> = d.element_children(d.root()).collect();
        assert_eq!(d.count_label_in_subtree(title, years[0]), 2);
        assert_eq!(d.count_label_in_subtree(title, years[1]), 1);
        assert_eq!(d.count_label_in_subtree(title, d.root()), 3);
        let m = d.nodes_labeled("movie")[0];
        assert_eq!(d.count_label_in_subtree(title, m), 1);
    }

    #[test]
    fn label_occurs_in_subtree() {
        let d = fig1ish();
        let dir = d.lookup("director").unwrap();
        let t = d.nodes_labeled("title")[0];
        assert!(!d.label_occurs_in_subtree(dir, t));
        assert!(d.label_occurs_in_subtree(dir, d.root()));
    }

    #[test]
    fn cursor_probes_match_plain_probes() {
        // Every (label, subtree) probe, swept forward and backward so
        // both galloping directions run, must agree with the stateless
        // binary search.
        let d = fig1ish();
        for lab in ["title", "director", "movie", "year", "movies"] {
            let sym = d.lookup(lab).unwrap();
            let mut fwd = crate::axes::SubtreeProbeCursor::default();
            let mut bwd = crate::axes::SubtreeProbeCursor::default();
            for i in 0..d.len() {
                let a = crate::NodeId::from_index(i);
                let b = crate::NodeId::from_index(d.len() - 1 - i);
                assert_eq!(
                    d.labeled_in_subtree(sym, a),
                    d.labeled_in_subtree_from(sym, a, &mut fwd),
                    "label {lab}, forward sweep at {a}"
                );
                assert_eq!(
                    d.labeled_in_subtree(sym, b),
                    d.labeled_in_subtree_from(sym, b, &mut bwd),
                    "label {lab}, backward sweep at {b}"
                );
            }
        }
    }

    #[test]
    fn gallop_lower_bound_matches_partition_point_for_all_hints() {
        let pres: Vec<u32> = vec![0, 2, 2, 5, 9, 9, 9, 14, 21];
        for target in 0..=22 {
            let want = pres.partition_point(|&p| p < target);
            for hint in 0..=pres.len() + 2 {
                assert_eq!(
                    super::gallop_lower_bound(&pres, target, hint),
                    want,
                    "target {target}, hint {hint}"
                );
            }
        }
        assert_eq!(super::gallop_lower_bound(&[], 3, 0), 0);
        assert_eq!(super::gallop_lower_bound(&[], 3, 7), 0);
    }

    #[test]
    fn lca_matches_definition_on_all_pairs() {
        let d = fig1ish();
        for a in (0..d.len()).map(NodeId::from_index) {
            for b in (0..d.len()).map(NodeId::from_index) {
                assert_eq!(d.lca(a, b), lca_oracle(&d, a, b), "lca({a},{b})");
            }
        }
    }

    #[test]
    fn child_toward_matches_definition_on_all_pairs() {
        let d = fig1ish();
        for a in (0..d.len()).map(NodeId::from_index) {
            for b in (0..d.len()).map(NodeId::from_index) {
                assert_eq!(
                    d.child_toward(a, b),
                    child_toward_oracle(&d, a, b),
                    "child_toward({a},{b})"
                );
            }
        }
    }

    #[test]
    fn climb_edge_cases() {
        let d = fig1ish();
        let (parent, extent) = (d.parent_pres(), d.extents());
        let pre = |label: &str| d.pre(d.nodes_labeled(label)[0]);
        let (root, year, movie, title) = (0, pre("year"), pre("movie"), pre("title"));
        // Same rank: the node is its own LCA and has no path child.
        assert_eq!(lca_pre(parent, extent, title, title), Some((title, None)));
        assert_eq!(child_toward_pre(parent, title, title), None);
        // Ancestor and descendant, in both orders.
        assert_eq!(lca_pre(parent, extent, movie, title), Some((movie, None)));
        assert_eq!(
            lca_pre(parent, extent, title, movie),
            Some((movie, Some(title)))
        );
        assert_eq!(child_toward_pre(parent, movie, title), Some(title));
        assert_eq!(child_toward_pre(parent, title, movie), None);
        // The root covers every rank and has no parent.
        assert_eq!(lca_pre(parent, extent, root, title), Some((root, None)));
        assert_eq!(
            lca_pre(parent, extent, title, root),
            Some((root, Some(year)))
        );
        assert_eq!(child_toward_pre(parent, root, title), Some(year));
        assert_eq!(child_toward_pre(parent, title, root), None);
        // A rank past the last live node has no LCA and no path child,
        // so the MLCA relates it to nothing but itself.
        for past in [parent.len() as u32, u32::MAX] {
            assert_eq!(lca_pre(parent, extent, past, title), None);
            assert_eq!(lca_pre(parent, extent, title, past), None);
            assert_eq!(lca_pre(parent, extent, past, past), None);
            assert_eq!(child_toward_pre(parent, root, past), None);
            assert_eq!(child_toward_pre(parent, past, title), None);
        }
    }

    #[test]
    fn subtree_range_of_last_node() {
        let d = fig1ish();
        // The very last title/director pair: range must extend to the end.
        let dirs = d.nodes_labeled("director");
        let last = dirs[dirs.len() - 1];
        let sym = d.lookup("director").unwrap();
        assert_eq!(d.count_label_in_subtree(sym, last), 1);
    }
}
