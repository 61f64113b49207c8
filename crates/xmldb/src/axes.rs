//! Tree navigation: children, descendants, ancestors, subtree tests and
//! lowest common ancestors.
//!
//! These are the structural primitives beneath the XQuery engine's path
//! steps, the postings probes of the MLCA (meaningful lowest common
//! ancestor) predicate in crate `xquery`, and the Meet operator of the
//! keyword-search baseline. Containment tests use pre/post-order ranks,
//! so they are O(1).
//! On a finalized document LCA queries are answered in O(1) from the
//! Euler-tour index built by [`Document::finalize`], and level-ancestor
//! queries (including [`Document::child_toward`]) in O(log n) via binary
//! lifting; the original parent-pointer walks survive as `*_walk`
//! reference implementations and as fallbacks for unfinalized documents.
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
        if let Some(ix) = &self.struct_index {
            let lo = self.arena.pre[id.index()];
            // Skip `id` itself: its pre rank is `lo`.
            return Descendants {
                doc: self,
                sweep: Some(lo as usize + 1..ix.subtree_hi(lo) as usize + 1),
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

    /// Lowest common ancestor of two nodes. Total: every pair in one
    /// document has an LCA (at worst the root). O(1) on a finalized
    /// document (Euler-tour RMQ), O(depth) otherwise.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        obs::count_hot(obs::Counter::LcaQueries, 1);
        match &self.struct_index {
            Some(ix) => ix.lca(a, b),
            None => self.lca_walk(a, b),
        }
    }

    /// Parent-pointer reference implementation of [`Document::lca`]:
    /// walk up from the deeper node until depths match, then in
    /// lockstep. O(depth). Kept as the oracle the indexed version is
    /// property-tested against, and as the pre-finalization fallback.
    pub fn lca_walk(&self, a: NodeId, b: NodeId) -> NodeId {
        if self.is_ancestor_or_self(a, b) {
            return a;
        }
        if self.is_ancestor_or_self(b, a) {
            return b;
        }
        // Walk up from the deeper node until depths match, then in
        // lockstep. The root handles both `None` parents below: the
        // ancestor-or-self checks above already dealt with one node
        // being the root, so hitting it here means the walk converged.
        let (mut x, mut y) = (a.index(), b.index());
        while self.arena.depth[x] > self.arena.depth[y] {
            let p = self.arena.parent[x];
            if p == NIL {
                break;
            }
            x = p as usize;
        }
        while self.arena.depth[y] > self.arena.depth[x] {
            let p = self.arena.parent[y];
            if p == NIL {
                break;
            }
            y = p as usize;
        }
        while x != y {
            let (px, py) = (self.arena.parent[x], self.arena.parent[y]);
            if px == NIL || py == NIL {
                return self.root();
            }
            x = px as usize;
            y = py as usize;
        }
        NodeId(x as u32)
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
    /// subtree of this child. O(log n) on a finalized document (one
    /// level-ancestor query), O(depth) otherwise.
    pub fn child_toward(&self, anc: NodeId, desc: NodeId) -> Option<NodeId> {
        obs::count_hot(obs::Counter::ChildTowardQueries, 1);
        if !self.is_proper_ancestor(anc, desc) {
            return None;
        }
        match &self.struct_index {
            Some(ix) => {
                let depth = &self.arena.depth;
                Some(ix.ancestor_at_depth(desc, depth[desc.index()], depth[anc.index()] + 1))
            }
            None => self.child_toward_walk(anc, desc),
        }
    }

    /// Parent-pointer reference implementation of
    /// [`Document::child_toward`], kept as the property-test oracle and
    /// the pre-finalization fallback.
    pub fn child_toward_walk(&self, anc: NodeId, desc: NodeId) -> Option<NodeId> {
        if !self.is_proper_ancestor(anc, desc) {
            return None;
        }
        let mut cur = desc;
        loop {
            let p = self.parent(cur)?;
            if p == anc {
                return Some(cur);
            }
            cur = p;
        }
    }

    /// The ancestor of `id` at exactly `depth` (root = 0); `id` itself
    /// when its depth matches, `None` when `id` is shallower than the
    /// requested depth. O(log n) on a finalized document.
    pub fn ancestor_at_depth(&self, id: NodeId, depth: u32) -> Option<NodeId> {
        let own = self.arena.depth[id.index()];
        if depth > own {
            return None;
        }
        match &self.struct_index {
            Some(ix) => Some(ix.ancestor_at_depth(id, own, depth)),
            None => {
                let mut cur = id;
                for _ in 0..own - depth {
                    cur = self.parent(cur)?;
                }
                Some(cur)
            }
        }
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
        if let Some(ix) = &self.struct_index {
            return (lo, ix.subtree_hi(lo));
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
    use crate::document::Document;

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

    #[test]
    fn descendants_sweep_matches_link_walk() {
        // Build the same tree twice: one finalized (order-table sweep),
        // one not (link-walk fallback) — identical sequences, for every
        // possible subtree root.
        let fin = fig1ish();
        let mut raw = fig1ish();
        raw.struct_index = None; // forces the stack path
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
    fn indexed_lca_matches_walk_on_all_pairs() {
        let d = fig1ish();
        for a in 0..d.len() {
            for b in 0..d.len() {
                let (a, b) = (crate::NodeId::from_index(a), crate::NodeId::from_index(b));
                assert_eq!(d.lca(a, b), d.lca_walk(a, b));
            }
        }
    }

    #[test]
    fn indexed_child_toward_matches_walk_on_all_pairs() {
        let d = fig1ish();
        for a in 0..d.len() {
            for b in 0..d.len() {
                let (a, b) = (crate::NodeId::from_index(a), crate::NodeId::from_index(b));
                assert_eq!(d.child_toward(a, b), d.child_toward_walk(a, b));
            }
        }
    }

    #[test]
    fn ancestor_at_depth_walks_to_root() {
        let d = fig1ish();
        let t = d.nodes_labeled("title")[0];
        assert_eq!(d.ancestor_at_depth(t, 0), Some(d.root()));
        assert_eq!(d.ancestor_at_depth(t, 3), Some(t));
        assert_eq!(d.ancestor_at_depth(t, 4), None);
        let m = d.nodes_labeled("movie")[0];
        assert_eq!(d.ancestor_at_depth(t, 2), Some(m));
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
