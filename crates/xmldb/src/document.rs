//! The document store, construction API, and label index.
//!
//! Nodes live in a columnar node arena (`arena::NodeArena`); this module
//! owns the construction API (which keeps ids dense and every node
//! attached), finalization (rank assignment, document-order table,
//! label postings, the pre-keyed parent and extent columns) and the
//! lookup surface the query layers consume.

use crate::arena::{link, NodeArena, NIL};
use crate::interner::{Interner, Symbol};
use crate::node::{Node, NodeId, NodeKind};

/// Reserved label for text nodes.
pub const TEXT_LABEL: &str = "#text";

/// Per-label postings: all nodes carrying one label, in document order,
/// with a parallel column of their pre-order ranks.
///
/// The `pres` column is what makes subtree probes branch-lean: locating
/// the labelled nodes inside a subtree is two `partition_point` calls
/// over a contiguous `u32` slice — no per-probe node loads at all.
#[derive(Debug, Clone, Default)]
pub(crate) struct Postings {
    pub(crate) ids: Vec<NodeId>,
    pub(crate) pres: Vec<u32>,
}

/// An in-memory XML document.
///
/// Construct one either by parsing text ([`Document::parse_str`]), through
/// the streaming [`DocumentBuilder`], or imperatively with
/// [`Document::new`] / [`Document::add_element`] / [`Document::add_text`]
/// followed by [`Document::finalize`].
///
/// Queries must only run against a *finalized* document: finalization
/// assigns pre/post-order ranks and depths and builds the label index.
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) interner: Interner,
    pub(crate) arena: NodeArena,
    root: NodeId,
    /// Dense per-symbol postings (indexed by `Symbol::index()`).
    postings: Vec<Postings>,
    /// Document-order table: `order[r]` is the arena index of the node
    /// with pre-order rank `r`. Subtree iteration is a slice of this.
    pub(crate) order: Vec<u32>,
    /// Pre-keyed parent column, one half of the structural index: entry
    /// `r` is the pre rank of the parent of the node at pre rank `r`
    /// ([`NIL`] for the root).
    pub(crate) parent_pre: Vec<u32>,
    /// Pre-keyed extent column, the other half: entry `r` is the largest
    /// pre rank inside the subtree of the node at pre rank `r`, so that
    /// subtree is the interval `[r, subtree_hi[r]]`.
    pub(crate) subtree_hi: Vec<u32>,
    finalized: bool,
}

impl Document {
    /// Create a document with a single root element named `root_label`.
    pub fn new(root_label: &str) -> Self {
        let mut interner = Interner::new();
        let sym = interner.intern(root_label);
        let mut arena = NodeArena::default();
        let root = arena.push(sym, NodeKind::Element, None);
        Document {
            interner,
            arena,
            root,
            postings: Vec::new(),
            order: Vec::new(),
            parent_pre: Vec::new(),
            subtree_hi: Vec::new(),
            finalized: false,
        }
    }

    /// The root element.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of arena slots: every node ever created, including nodes
    /// a node-level update detached, which keep their slot until a
    /// rebuild. Ranges over live nodes use the pre-keyed columns
    /// ([`Document::parent_pres`]) or [`DocStats::total_nodes`].
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True if the document somehow has no nodes (cannot happen through
    /// the public API, which always creates a root).
    pub fn is_empty(&self) -> bool {
        self.arena.len() == 0
    }

    /// Assemble the full per-node view. Cheap (a handful of column
    /// loads, no allocation), but when a hot loop needs only one field,
    /// prefer the single-column accessors ([`Document::pre`],
    /// [`Document::kind`], [`Document::parent`], …) — they touch one
    /// cache line instead of twelve.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        let i = id.index();
        Node {
            label: self.arena.labels[i],
            kind: self.arena.kinds[i],
            value: self.arena.value(i),
            parent: link(self.arena.parent[i]),
            first_child: link(self.arena.first_child[i]),
            last_child: link(self.arena.last_child[i]),
            next_sibling: link(self.arena.next_sibling[i]),
            prev_sibling: link(self.arena.prev_sibling[i]),
            pre: self.arena.pre[i],
            post: self.arena.post[i],
            depth: self.arena.depth[i],
        }
    }

    // ------------------------------------------------------------------
    // Single-column accessors (the hot-path API)
    // ------------------------------------------------------------------

    /// Pre-order rank of `id` (document order). One column load.
    #[inline]
    pub fn pre(&self, id: NodeId) -> u32 {
        self.arena.pre[id.index()]
    }

    /// Post-order rank of `id`. One column load.
    #[inline]
    pub fn post(&self, id: NodeId) -> u32 {
        self.arena.post[id.index()]
    }

    /// Depth of `id` (root = 0). One column load.
    #[inline]
    pub fn depth(&self, id: NodeId) -> u32 {
        self.arena.depth[id.index()]
    }

    /// Kind of `id`. One column load.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.arena.kinds[id.index()]
    }

    /// Parent of `id`; `None` only for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        link(self.arena.parent[id.index()])
    }

    /// First child of `id` in document order.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        link(self.arena.first_child[id.index()])
    }

    /// Next sibling of `id` in document order.
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        link(self.arena.next_sibling[id.index()])
    }

    /// The stored text of `id`, borrowed from the shared string heap:
    /// `Some` for text and attribute nodes, `None` for elements.
    #[inline]
    pub fn value(&self, id: NodeId) -> Option<&str> {
        self.arena.value(id.index())
    }

    /// The document's interner (read-only).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The label (tag/attribute name) of `id` as a string.
    #[inline]
    pub fn label(&self, id: NodeId) -> &str {
        self.interner.resolve(self.arena.labels[id.index()])
    }

    /// The label symbol of `id`.
    #[inline]
    pub fn label_sym(&self, id: NodeId) -> Symbol {
        self.arena.labels[id.index()]
    }

    /// Intern a label in this document's interner.
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// Look up a label without interning.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.interner.get(name)
    }

    /// The string a symbol of this document's interner stands for (the
    /// inverse of [`Document::lookup`]). Update deltas
    /// ([`crate::UpdateStats`]) carry labels as symbols; downstream
    /// catalogs resolve them through here.
    pub fn resolve_label(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    fn attach(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(!self.finalized, "cannot mutate a finalized document");
        self.arena.attach(parent, child);
    }

    /// Append a child element labelled `label` under `parent`.
    pub fn add_element(&mut self, parent: NodeId, label: &str) -> NodeId {
        let sym = self.interner.intern(label);
        let id = self.arena.push(sym, NodeKind::Element, None);
        self.attach(parent, id);
        id
    }

    /// Append a text node with content `text` under `parent`.
    pub fn add_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        let sym = self.interner.intern(TEXT_LABEL);
        let id = self.arena.push(sym, NodeKind::Text, Some(text));
        self.attach(parent, id);
        id
    }

    /// Append an attribute node `name="value"` under `parent`.
    pub fn add_attribute(&mut self, parent: NodeId, name: &str, value: &str) -> NodeId {
        let sym = self.interner.intern(name);
        let id = self.arena.push(sym, NodeKind::Attribute, Some(value));
        self.attach(parent, id);
        id
    }

    /// Convenience: `add_element` followed by `add_text`, returning the
    /// element. This is the common "leaf element with a value" pattern
    /// (`<title>Traffic</title>`).
    pub fn add_leaf(&mut self, parent: NodeId, label: &str, text: &str) -> NodeId {
        let el = self.add_element(parent, label);
        self.add_text(el, text);
        el
    }

    /// Assign pre/post-order ranks and depths, build the document-order
    /// table, the label postings and the pre-keyed parent and extent
    /// columns.
    ///
    /// Idempotent; must be called before querying. All the navigation in
    /// [`crate::axes`] that relies on ranks will panic (in debug builds)
    /// on an unfinalized document.
    pub fn finalize(&mut self) {
        // Iterative DFS assigning depths on entry and recording the
        // entry sequence as the document-order table.
        let n = self.arena.len();
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut stack: Vec<u32> = vec![self.root.0];
        let mut scratch: Vec<u32> = Vec::new();
        while let Some(i) = stack.pop() {
            let iu = i as usize;
            // Parents are entered before their children, so the parent's
            // depth is already assigned.
            self.arena.depth[iu] = match self.arena.parent[iu] {
                NIL => 0,
                p => self.arena.depth[p as usize] + 1,
            };
            order.push(i);
            // Push children in reverse so the first child is processed
            // first (one reusable scratch buffer, not one per node).
            scratch.clear();
            let mut c = self.arena.first_child[iu];
            while c != NIL {
                scratch.push(c);
                c = self.arena.next_sibling[c as usize];
            }
            stack.extend(scratch.iter().rev());
        }
        self.adopt_order(order);
    }

    /// Make `order` the document order: the last step of both
    /// [`Document::finalize`] and an update's patch commit. Assigns pre
    /// ranks from it, derives post ranks and the pre-keyed parent and
    /// extent columns in one stack pass over it, and refills the label
    /// postings. `arena.depth` must be correct for every node in
    /// `order`.
    pub(crate) fn adopt_order(&mut self, order: Vec<u32>) {
        let arena = &mut self.arena;
        for (rank, &i) in order.iter().enumerate() {
            arena.pre[i as usize] = rank as u32;
        }
        let live = order.len();
        let mut parent_pre = vec![NIL; live];
        let mut subtree_hi = vec![0u32; live];
        // Pre-order with depths is a complete tree encoding: a node's
        // subtree ends right before the next node at its depth or
        // shallower. Closing a node assigns its post rank (pops cascade
        // bottom-up, which is exactly post order). After the pops the
        // stack top is the next node's parent. A `None` past the last
        // rank closes every node still open.
        let mut stack: Vec<u32> = Vec::new();
        let mut post = 0u32;
        let ranked = order.iter().map(|&v| Some((v, arena.depth[v as usize])));
        for (rank, next) in ranked.chain([None]).enumerate() {
            while let Some(&top) = stack.last() {
                let tu = top as usize;
                if next.is_some_and(|(_, dv)| arena.depth[tu] < dv) {
                    break;
                }
                stack.pop();
                arena.post[tu] = post;
                post += 1;
                subtree_hi[arena.pre[tu] as usize] = (rank - 1) as u32;
            }
            let Some((v, _)) = next else { break };
            if let Some(&p) = stack.last() {
                parent_pre[rank] = arena.pre[p as usize];
            }
            stack.push(v);
        }
        self.parent_pre = parent_pre;
        self.subtree_hi = subtree_hi;
        self.order = order;
        self.rebuild_postings();
        self.finalized = true;
    }

    /// Label postings in document (pre) order — one pass over the
    /// order table fills every label's ids and pres columns sorted.
    fn rebuild_postings(&mut self) {
        let mut postings: Vec<Postings> = vec![Postings::default(); self.interner.len()];
        for &i in &self.order {
            let p = &mut postings[self.arena.labels[i as usize].index()];
            p.ids.push(NodeId(i));
            p.pres.push(self.arena.pre[i as usize]);
        }
        self.postings = postings;
    }

    /// Re-run finalization after link-level mutation: the rebuild path
    /// of the update subsystem. Ranks of every arena slot are cleared
    /// first so nodes detached by edits keep no stale pre/post and are
    /// excluded from every rank-driven structure.
    pub(crate) fn refinalize(&mut self) {
        for i in 0..self.arena.len() {
            self.arena.pre[i] = NIL;
            self.arena.post[i] = NIL;
        }
        self.finalized = false;
        self.finalize();
    }

    /// Arena index of the node at pre-order rank `pre`; `None` when the
    /// rank is out of range or the document is not finalized.
    #[inline]
    pub fn node_at_pre(&self, pre: u32) -> Option<NodeId> {
        self.order.get(pre as usize).map(|&i| NodeId(i))
    }

    /// The pre-keyed parent column: entry `p` is the pre rank of the
    /// parent of the node at pre rank `p`, `u32::MAX` for the root. One
    /// entry per live node; empty before finalization.
    #[inline]
    pub fn parent_pres(&self) -> &[u32] {
        &self.parent_pre
    }

    /// The pre-keyed extent column: entry `p` is the largest pre rank
    /// inside the subtree of the node at pre rank `p`, so that subtree
    /// is exactly the pre interval `[p, extents()[p]]`. Empty before
    /// finalization.
    #[inline]
    pub fn extents(&self) -> &[u32] {
        &self.subtree_hi
    }

    /// The ascending pre ranks of the nodes labelled `sym` (the label
    /// postings' pre column).
    #[inline]
    pub fn label_pres(&self, sym: Symbol) -> &[u32] {
        self.postings_for(sym).map_or(&[], |p| p.pres.as_slice())
    }

    /// Whether [`Document::finalize`] has run.
    #[inline]
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// All nodes labelled `label`, in document order. Empty if the label
    /// does not occur.
    pub fn nodes_labeled(&self, label: &str) -> &[NodeId] {
        debug_assert!(self.finalized, "query against unfinalized document");
        self.interner
            .get(label)
            .and_then(|sym| self.postings.get(sym.index()))
            .map(|p| p.ids.as_slice())
            .unwrap_or(&[])
    }

    /// All nodes with label symbol `sym`, in document order.
    pub fn nodes_with_symbol(&self, sym: Symbol) -> &[NodeId] {
        debug_assert!(self.finalized, "query against unfinalized document");
        self.postings
            .get(sym.index())
            .map(|p| p.ids.as_slice())
            .unwrap_or(&[])
    }

    /// The postings entry for `sym`, when the label occurs.
    #[inline]
    pub(crate) fn postings_for(&self, sym: Symbol) -> Option<&Postings> {
        self.postings.get(sym.index())
    }

    /// Distinct element/attribute labels present in the document
    /// (excludes the reserved `#text` label), in interning order.
    pub fn labels(&self) -> Vec<&str> {
        self.interner
            .iter()
            .filter(|(_, s)| *s != TEXT_LABEL)
            .map(|(_, s)| s)
            .collect()
    }

    /// The string value of a node, XPath style: for text and attribute
    /// nodes their own content; for elements the concatenation of all
    /// descendant text, in document order.
    ///
    /// On a finalized document the element case is a linear sweep over
    /// the subtree's slice of the document-order table — no recursion,
    /// no link chasing.
    pub fn string_value(&self, id: NodeId) -> String {
        let i = id.index();
        match self.arena.kinds[i] {
            NodeKind::Text | NodeKind::Attribute => {
                self.arena.value(i).unwrap_or_default().to_owned()
            }
            NodeKind::Element => {
                if !self.finalized {
                    // Unfinalized: no order table yet, walk the links.
                    let mut out = String::new();
                    self.collect_text_walk(id, &mut out);
                    return out;
                }
                if let Some(one) = self.sole_subtree_text(id) {
                    return one.to_owned();
                }
                let mut out = String::new();
                for t in self.subtree_texts(id) {
                    out.push_str(t);
                }
                out
            }
        }
    }

    /// The *atomized* value of a node, borrowing from the string heap
    /// whenever possible — the comparison-side counterpart of
    /// [`Document::string_value`].
    ///
    /// Semantics (shared with the XQuery engine's atomization): text and
    /// attribute nodes yield their own content; an element with
    /// non-whitespace *direct* text yields that text trimmed (mixed
    /// content like `<year>2000 <movie>…</movie></year>` atomizes to
    /// "2000", not the concatenation of every nested title); any other
    /// element yields its whole-subtree string value.
    ///
    /// For the dominant leaf shape (`<title>…</title>`) this is a
    /// borrowed slice: no allocation per comparison, which is what makes
    /// a predicate scan over millions of nodes a linear sweep rather
    /// than a malloc benchmark.
    pub fn atom_value(&self, id: NodeId) -> std::borrow::Cow<'_, str> {
        use std::borrow::Cow;
        let i = id.index();
        match self.arena.kinds[i] {
            NodeKind::Text | NodeKind::Attribute => {
                Cow::Borrowed(self.arena.value(i).unwrap_or_default())
            }
            NodeKind::Element => {
                // One pass over the children: the direct text, borrowed
                // while it is carried by a single text child.
                let mut direct: Option<Cow<'_, str>> = None;
                let mut c = self.arena.first_child[i];
                while c != NIL {
                    let cu = c as usize;
                    if self.arena.kinds[cu] == NodeKind::Text {
                        let v = self.arena.value(cu).unwrap_or_default();
                        direct = Some(match direct {
                            None => Cow::Borrowed(v),
                            Some(prev) => {
                                let mut s = prev.into_owned();
                                s.push_str(v);
                                Cow::Owned(s)
                            }
                        });
                    }
                    c = self.arena.next_sibling[cu];
                }
                if let Some(d) = direct {
                    if !d.trim().is_empty() {
                        return match d {
                            Cow::Borrowed(b) => Cow::Borrowed(b.trim()),
                            Cow::Owned(o) => Cow::Owned(o.trim().to_owned()),
                        };
                    }
                }
                match self.sole_subtree_text(id) {
                    Some(one) => Cow::Borrowed(one),
                    None => Cow::Owned(self.string_value(id)),
                }
            }
        }
    }

    /// Link-walking text collection for unfinalized documents (an
    /// explicit stack, so arbitrarily deep trees cannot overflow).
    fn collect_text_walk(&self, id: NodeId, out: &mut String) {
        let mut stack: Vec<u32> = Vec::new();
        let push_children = |stack: &mut Vec<u32>, i: usize| {
            let mut kids: Vec<u32> = Vec::new();
            let mut c = self.arena.first_child[i];
            while c != NIL {
                kids.push(c);
                c = self.arena.next_sibling[c as usize];
            }
            stack.extend(kids.into_iter().rev());
        };
        push_children(&mut stack, id.index());
        while let Some(i) = stack.pop() {
            let iu = i as usize;
            match self.arena.kinds[iu] {
                NodeKind::Text => {
                    if let Some(v) = self.arena.value(iu) {
                        out.push_str(v);
                    }
                }
                NodeKind::Element => push_children(&mut stack, iu),
                NodeKind::Attribute => {}
            }
        }
    }

    /// The single text content of an element's subtree, borrowed from
    /// the string heap — `Some` exactly when the subtree holds one text
    /// node (the overwhelmingly common `<title>…</title>` leaf shape).
    /// `None` means zero or several text nodes; callers fall back to
    /// the concatenating [`Document::string_value`]. Requires a
    /// finalized document; returns `None` before finalization.
    pub fn sole_subtree_text(&self, id: NodeId) -> Option<&str> {
        let mut it = self.subtree_texts(id);
        let first = it.next()?;
        match it.next() {
            None => Some(first),
            Some(_) => None,
        }
    }

    /// Iterator over the text contents inside the subtree of `id`
    /// (an element), in document order. Empty on unfinalized documents.
    fn subtree_texts(&self, id: NodeId) -> impl Iterator<Item = &str> {
        let lo = self.arena.pre[id.index()];
        let range = match self.subtree_hi.get(lo as usize) {
            Some(&hi) => lo as usize..hi as usize + 1,
            None => 0..0,
        };
        self.order[range].iter().filter_map(|&i| {
            let i = i as usize;
            if self.arena.kinds[i] == NodeKind::Text {
                self.arena.value(i)
            } else {
                None
            }
        })
    }

    /// The *direct* text of an element: concatenation of its immediate
    /// text children only. This matters for mixed content such as the
    /// paper's `<year>2000 <movie>…</movie></year>` shape, where the
    /// year's own value must not swallow the nested movie titles.
    pub fn direct_text(&self, id: NodeId) -> String {
        match self.sole_direct_text(id) {
            Some(one) => one.to_owned(),
            None => {
                let mut out = String::new();
                let mut c = self.arena.first_child[id.index()];
                while c != NIL {
                    let cu = c as usize;
                    if self.arena.kinds[cu] == NodeKind::Text {
                        if let Some(v) = self.arena.value(cu) {
                            out.push_str(v);
                        }
                    }
                    c = self.arena.next_sibling[cu];
                }
                out
            }
        }
    }

    /// The direct text of an element when it is carried by a *single*
    /// text child, borrowed from the string heap; `None` when the
    /// element has zero or several text children (callers fall back to
    /// the concatenating [`Document::direct_text`]).
    pub fn sole_direct_text(&self, id: NodeId) -> Option<&str> {
        let mut found: Option<&str> = None;
        let mut c = self.arena.first_child[id.index()];
        while c != NIL {
            let cu = c as usize;
            if self.arena.kinds[cu] == NodeKind::Text {
                if found.is_some() {
                    return None;
                }
                found = self.arena.value(cu);
            }
            c = self.arena.next_sibling[cu];
        }
        found
    }

    /// Statistics used by the dataset generators to hit the paper's
    /// document size (73,142 nodes / 1.44 MB for the DBLP subset).
    pub fn stats(&self) -> DocStats {
        let mut s = DocStats::default();
        let mut tally = |i: usize| match self.arena.kinds[i] {
            NodeKind::Element => s.elements += 1,
            NodeKind::Attribute => s.attributes += 1,
            NodeKind::Text => {
                s.text_nodes += 1;
                s.text_bytes += self.arena.value(i).map_or(0, str::len);
            }
        };
        if self.finalized {
            // Count reachable nodes only: after node-level updates the
            // arena may hold detached slots awaiting a rebuild.
            for &i in &self.order {
                tally(i as usize);
            }
        } else {
            for i in 0..self.arena.len() {
                tally(i);
            }
        }
        s.labels = self.interner.len();
        s
    }

    /// Byte-level accounting of the document's resident structures —
    /// what a memory budget should reason about at corpus scale.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            node_columns: self.arena.column_bytes(),
            string_heap: self.arena.heap_bytes(),
            doc_order: self.order.len() * std::mem::size_of::<u32>(),
            label_postings: self
                .postings
                .iter()
                .map(|p| (p.ids.len() + p.pres.len()) * std::mem::size_of::<u32>())
                .sum(),
            struct_index: (self.parent_pre.len() + self.subtree_hi.len())
                * std::mem::size_of::<u32>(),
        }
    }
}

/// Simple size statistics for a document.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DocStats {
    /// Number of element nodes.
    pub elements: usize,
    /// Number of attribute nodes.
    pub attributes: usize,
    /// Number of text nodes.
    pub text_nodes: usize,
    /// Total bytes of text content.
    pub text_bytes: usize,
    /// Number of distinct labels (including `#text`).
    pub labels: usize,
}

impl DocStats {
    /// Total node count.
    pub fn total_nodes(&self) -> usize {
        self.elements + self.attributes + self.text_nodes
    }
}

/// Bytes held by each resident structure of a (finalized) document.
/// Reported by [`Document::memory_footprint`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// The twelve node columns of the arena.
    pub node_columns: usize,
    /// The packed text/attribute content heap.
    pub string_heap: usize,
    /// The document-order (pre rank → arena index) table.
    pub doc_order: usize,
    /// Per-label postings (ids + pre ranks).
    pub label_postings: usize,
    /// The structural index: the pre-keyed parent and extent columns
    /// ([`Document::parent_pres`], [`Document::extents`]), 8 bytes per
    /// live node.
    pub struct_index: usize,
}

impl MemoryFootprint {
    /// Total bytes across all structures.
    pub fn total(&self) -> usize {
        self.node_columns
            + self.string_heap
            + self.doc_order
            + self.label_postings
            + self.struct_index
    }
}

/// A streaming builder mirroring SAX-style events, used by the XML text
/// parser and handy for generators.
///
/// ```
/// use xmldb::DocumentBuilder;
/// let mut b = DocumentBuilder::new("bib");
/// b.open("book");
/// b.attr("year", "1994");
/// b.leaf("title", "TCP/IP Illustrated");
/// b.close();
/// let doc = b.finish();
/// assert_eq!(doc.nodes_labeled("book").len(), 1);
/// ```
#[derive(Debug)]
pub struct DocumentBuilder {
    doc: Document,
    root: NodeId,
    stack: Vec<NodeId>,
}

impl DocumentBuilder {
    /// Start a document whose root element is `root_label`.
    pub fn new(root_label: &str) -> Self {
        let doc = Document::new(root_label);
        let root = doc.root();
        DocumentBuilder {
            doc,
            root,
            stack: vec![root],
        }
    }

    fn top(&self) -> NodeId {
        self.stack.last().copied().unwrap_or(self.root)
    }

    /// Open a child element and descend into it.
    pub fn open(&mut self, label: &str) -> NodeId {
        let id = self.doc.add_element(self.top(), label);
        self.stack.push(id);
        id
    }

    /// Add an attribute to the currently open element.
    pub fn attr(&mut self, name: &str, value: &str) -> NodeId {
        self.doc.add_attribute(self.top(), name, value)
    }

    /// Add a text child to the currently open element.
    pub fn text(&mut self, text: &str) -> NodeId {
        self.doc.add_text(self.top(), text)
    }

    /// Add a `<label>text</label>` child without descending.
    pub fn leaf(&mut self, label: &str, text: &str) -> NodeId {
        self.doc.add_leaf(self.top(), label, text)
    }

    /// Close the current element, ascending to its parent.
    ///
    /// # Panics
    /// Panics when attempting to close the root.
    pub fn close(&mut self) {
        assert!(self.stack.len() > 1, "cannot close the root element");
        self.stack.pop();
    }

    /// Depth of the currently open element (root = 0).
    pub fn depth(&self) -> usize {
        self.stack.len() - 1
    }

    /// Finalize and return the document. Remaining open elements are
    /// closed implicitly.
    pub fn finish(mut self) -> Document {
        self.doc.finalize();
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        let mut d = Document::new("movies");
        let root = d.root();
        let m1 = d.add_element(root, "movie");
        d.add_leaf(m1, "title", "Traffic");
        d.add_leaf(m1, "director", "Steven Soderbergh");
        let m2 = d.add_element(root, "movie");
        d.add_leaf(m2, "title", "A Beautiful Mind");
        d.add_leaf(m2, "director", "Ron Howard");
        d.finalize();
        d
    }

    #[test]
    fn builds_and_finalizes() {
        let d = sample();
        assert!(d.is_finalized());
        assert_eq!(d.nodes_labeled("movie").len(), 2);
        assert_eq!(d.nodes_labeled("title").len(), 2);
        assert_eq!(d.nodes_labeled("nonexistent").len(), 0);
    }

    #[test]
    fn preorder_is_document_order() {
        let d = sample();
        let titles = d.nodes_labeled("title");
        assert!(d.node(titles[0]).pre < d.node(titles[1]).pre);
        assert_eq!(d.string_value(titles[0]), "Traffic");
        assert_eq!(d.string_value(titles[1]), "A Beautiful Mind");
    }

    #[test]
    fn depths_are_assigned() {
        let d = sample();
        assert_eq!(d.node(d.root()).depth, 0);
        let m = d.nodes_labeled("movie")[0];
        assert_eq!(d.node(m).depth, 1);
        let t = d.nodes_labeled("title")[0];
        assert_eq!(d.node(t).depth, 2);
    }

    #[test]
    fn view_and_column_accessors_agree() {
        let d = sample();
        for i in 0..d.len() {
            let id = NodeId::from_index(i);
            let n = d.node(id);
            assert_eq!(n.pre, d.pre(id));
            assert_eq!(n.post, d.post(id));
            assert_eq!(n.depth, d.depth(id));
            assert_eq!(n.kind, d.kind(id));
            assert_eq!(n.parent, d.parent(id));
            assert_eq!(n.first_child, d.first_child(id));
            assert_eq!(n.next_sibling, d.next_sibling(id));
            assert_eq!(n.value, d.value(id));
            assert_eq!(n.label, d.label_sym(id));
        }
    }

    #[test]
    fn string_value_concatenates_descendants() {
        let d = sample();
        let m = d.nodes_labeled("movie")[0];
        assert_eq!(d.string_value(m), "TrafficSteven Soderbergh");
    }

    #[test]
    fn direct_text_ignores_nested_elements() {
        let mut d = Document::new("year");
        let root = d.root();
        d.add_text(root, "2000");
        let m = d.add_element(root, "movie");
        d.add_leaf(m, "title", "Traffic");
        d.finalize();
        assert_eq!(d.direct_text(root), "2000");
        assert_eq!(d.string_value(root), "2000Traffic");
    }

    #[test]
    fn sole_direct_text_borrows_single_text_child() {
        let mut d = Document::new("movie");
        let root = d.root();
        let t = d.add_leaf(root, "title", "Traffic");
        d.add_text(root, "extra");
        d.add_text(root, "more");
        d.finalize();
        assert_eq!(d.sole_direct_text(t), Some("Traffic"));
        // Two text children: no sole slice.
        assert_eq!(d.sole_direct_text(root), None);
        assert_eq!(d.direct_text(root), "extramore");
        // An element with no text children at all.
        let empty = Document::new("r");
        assert_eq!(empty.sole_direct_text(empty.root()), None);
    }

    #[test]
    fn sole_subtree_text_borrows_single_descendant_text() {
        let d = sample();
        let t = d.nodes_labeled("title")[0];
        assert_eq!(d.sole_subtree_text(t), Some("Traffic"));
        let m = d.nodes_labeled("movie")[0];
        assert_eq!(d.sole_subtree_text(m), None); // two texts below
    }

    #[test]
    fn attributes_have_values() {
        let mut d = Document::new("bib");
        let root = d.root();
        let b = d.add_element(root, "book");
        d.add_attribute(b, "year", "1994");
        d.finalize();
        let y = d.nodes_labeled("year")[0];
        assert!(d.node(y).is_attribute());
        assert_eq!(d.string_value(y), "1994");
        assert_eq!(d.value(y), Some("1994"));
    }

    #[test]
    fn order_table_is_a_pre_order_permutation() {
        let d = sample();
        assert_eq!(d.order.len(), d.len());
        for (rank, &i) in d.order.iter().enumerate() {
            assert_eq!(d.pre(NodeId(i)) as usize, rank);
        }
    }

    #[test]
    fn builder_round_trip() {
        let mut b = DocumentBuilder::new("bib");
        b.open("book");
        b.attr("year", "1994");
        b.leaf("title", "TCP/IP Illustrated");
        b.open("author");
        b.leaf("last", "Stevens");
        b.leaf("first", "W.");
        b.close();
        b.close();
        let d = b.finish();
        assert_eq!(d.nodes_labeled("book").len(), 1);
        assert_eq!(d.nodes_labeled("last").len(), 1);
        assert_eq!(d.string_value(d.nodes_labeled("author")[0]), "StevensW.");
    }

    #[test]
    fn builder_auto_closes_on_finish() {
        let mut b = DocumentBuilder::new("r");
        b.open("a");
        b.open("b");
        let d = b.finish(); // no explicit closes
        assert!(d.is_finalized());
        assert_eq!(d.nodes_labeled("b").len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot close the root")]
    fn builder_refuses_to_close_root() {
        let mut b = DocumentBuilder::new("r");
        b.close();
    }

    #[test]
    fn stats_count_kinds() {
        let d = sample();
        let s = d.stats();
        assert_eq!(s.elements, 1 + 2 + 4); // movies + 2 movie + 2 title + 2 director
        assert_eq!(s.text_nodes, 4);
        assert_eq!(s.attributes, 0);
        assert_eq!(s.total_nodes(), d.len());
    }

    #[test]
    fn labels_excludes_text() {
        let d = sample();
        let labels = d.labels();
        assert!(labels.contains(&"movie"));
        assert!(!labels.contains(&"#text"));
    }

    #[test]
    fn postorder_root_is_last() {
        let d = sample();
        let max_post = (0..d.len())
            .map(|i| d.post(NodeId::from_index(i)))
            .max()
            .unwrap();
        assert_eq!(d.node(d.root()).post, max_post);
    }

    #[test]
    fn memory_footprint_accounts_all_parts() {
        let d = sample();
        let f = d.memory_footprint();
        assert!(f.node_columns > 0);
        assert_eq!(
            f.string_heap,
            "TrafficSteven SoderberghA Beautiful MindRon Howard".len()
        );
        assert_eq!(f.doc_order, d.len() * 4);
        assert!(f.label_postings > 0);
        assert_eq!(f.struct_index, 8 * d.stats().total_nodes());
        assert_eq!(
            f.total(),
            f.node_columns + f.string_heap + f.doc_order + f.label_postings + f.struct_index
        );
    }
}
