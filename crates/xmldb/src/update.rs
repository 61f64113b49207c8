//! Node-level updates with epoch-batched incremental index maintenance.
//!
//! The write path of the database. Every document in the system is an
//! immutable snapshot that readers pin (`Arc<Document>`); writes never
//! touch a published snapshot. Instead, [`Document::begin_update`]
//! clones the document — a column-level memcpy of the arena, cheap
//! relative to a re-parse — into a [`PendingUpdate`] *overlay*, edits
//! accumulate against the clone, and [`PendingUpdate::commit`] folds
//! the overlay into a successor snapshot in one step. The store swaps
//! the successor in and bumps the generation counter, exactly the hot
//! reload lifecycle, so in-flight readers keep snapshot isolation for
//! free.
//!
//! ## The edit algebra
//!
//! [`Edit`] offers five operations: [`Edit::InsertChild`],
//! [`Edit::InsertSibling`], [`Edit::DeleteSubtree`],
//! [`Edit::ReplaceValue`] and [`Edit::RenameLabel`]. Deliberately
//! absent: *move*. Because no node ever changes its position relative
//! to other surviving nodes, three invariants hold that the whole
//! incremental path is built on:
//!
//! 1. survivors keep their relative document order, so the new order
//!    table is a *splice* of the old one (copy, skip deleted ranges,
//!    emit inserted subtrees at their anchors) — no re-traversal;
//! 2. a deleted subtree is a contiguous range of *old* pre ranks, so
//!    deletions are range skips;
//! 3. survivors keep their parents and depths, so only appended nodes
//!    need a depth, and one stack pass over the spliced order derives
//!    every rank-keyed column.
//!
//! ## Commit strategies
//!
//! [`PendingUpdate::commit`] picks between two strategies, visible to
//! callers through [`UpdateStats::strategy`] (the store reports them
//! as distinct `index_patch` / `index_rebuild` spans):
//!
//! - [`CommitStrategy::Patch`] — the incremental path: splice the
//!   order table, then derive the pre-keyed parent and extent columns
//!   *and* post ranks in a single stack pass over the spliced order
//!   (pre-order plus depths is a complete tree encoding), and refill
//!   the label postings in one pass. No re-parse, no link-chasing DFS,
//!   and the catalog/value-index layers above receive a [`ValueOp`]
//!   delta plus a dirty-label set instead of rebuilding from scratch.
//! - [`CommitStrategy::Rebuild`] — when an edit batch touches more
//!   than a quarter of the live nodes the bookkeeping outweighs the
//!   saving; commit falls back to re-running finalization over the
//!   mutated links (still no re-parse).
//!
//! Arena slots of deleted nodes are *not* reclaimed — they are
//! unreachable, rank-cleared, and excluded from every index; the next
//! full rebuild (or reload) repacks. This is the classic
//! space-for-incrementality trade.
//!
//! ## Correctness contract
//!
//! After `commit`, the successor document must be *behaviorally
//! identical* to a from-scratch build of the mutated XML: every query,
//! axis walk, LCA probe and index lookup agrees. The differential
//! property test (`tests/update_differential.rs` at the workspace
//! root) enforces this against the serialize→reparse oracle.

use std::collections::HashSet;
use std::fmt;

use crate::arena::NIL;
use crate::document::{Document, TEXT_LABEL};
use crate::interner::Symbol;
use crate::node::{NodeId, NodeKind};

/// One node-level edit against a pending update's overlay.
///
/// Node identifiers refer to the snapshot the update was begun from
/// (they are stable across edits — slots are never reused) or to nodes
/// returned by earlier [`PendingUpdate::apply`] calls in the same
/// batch, which is how nested structures are built up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Append `node` as the last child of `parent` (attribute nodes are
    /// placed after the last existing attribute instead, keeping the
    /// attributes-first invariant the parser establishes).
    InsertChild {
        /// The element to insert under.
        parent: NodeId,
        /// What to insert.
        node: NewNode,
    },
    /// Insert `node` as the sibling immediately following `after`.
    InsertSibling {
        /// The reference sibling (must not be the root).
        after: NodeId,
        /// What to insert.
        node: NewNode,
    },
    /// Detach the subtree rooted at `target` (must not be the root).
    DeleteSubtree {
        /// Root of the subtree to delete.
        target: NodeId,
    },
    /// Replace the text of a text node or the value of an attribute.
    ReplaceValue {
        /// The text or attribute node to rewrite.
        target: NodeId,
        /// The new content.
        value: String,
    },
    /// Rename an element tag or an attribute name.
    RenameLabel {
        /// The element or attribute to rename.
        target: NodeId,
        /// The new name.
        label: String,
    },
}

/// The node payload of an insertion edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NewNode {
    /// An empty element; build its content with follow-up inserts
    /// against the returned id.
    Element {
        /// Tag name.
        label: String,
    },
    /// The common `<label>text</label>` shape in one step.
    Leaf {
        /// Tag name.
        label: String,
        /// Text content (must be non-empty).
        text: String,
    },
    /// A bare text node (must be non-empty).
    Text {
        /// Text content.
        text: String,
    },
    /// An attribute `name="value"`.
    Attribute {
        /// Attribute name (unique among the parent's attributes).
        name: String,
        /// Attribute value (may be empty).
        value: String,
    },
}

/// Why an edit was rejected. Every variant is a caller error; the
/// overlay is left exactly as before the failing [`PendingUpdate::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The node id does not exist in the document.
    UnknownNode(u32),
    /// The node was detached by an earlier edit in this batch.
    DetachedNode(u32),
    /// The operation requires an element but the node is not one.
    NotAnElement(u32),
    /// The root cannot be deleted and has no siblings.
    RootImmutable,
    /// The operation does not apply to this node kind (e.g. replacing
    /// the value of an element, or renaming a text node).
    KindMismatch(u32),
    /// The element/attribute name is not a valid XML name.
    InvalidName(String),
    /// Empty text nodes cannot round-trip through serialization and
    /// are rejected.
    EmptyText,
    /// The parent already carries an attribute with this name.
    DuplicateAttribute(String),
    /// The insertion would break the attributes-before-content order
    /// the parser establishes.
    AttributeOrder,
    /// Updates require a finalized document.
    NotFinalized,
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownNode(i) => write!(f, "unknown node id {i}"),
            UpdateError::DetachedNode(i) => {
                write!(f, "node {i} was detached by an earlier edit in this batch")
            }
            UpdateError::NotAnElement(i) => write!(f, "node {i} is not an element"),
            UpdateError::RootImmutable => {
                write!(f, "the root element cannot be deleted or given siblings")
            }
            UpdateError::KindMismatch(i) => {
                write!(f, "operation does not apply to the kind of node {i}")
            }
            UpdateError::InvalidName(n) => write!(f, "invalid XML name: {n:?}"),
            UpdateError::EmptyText => write!(f, "empty text nodes cannot round-trip; rejected"),
            UpdateError::DuplicateAttribute(n) => {
                write!(f, "parent already has an attribute named {n:?}")
            }
            UpdateError::AttributeOrder => {
                write!(
                    f,
                    "insertion would break the attributes-before-content order"
                )
            }
            UpdateError::NotFinalized => write!(f, "updates require a finalized document"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// How a commit folded the overlay into the successor snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStrategy {
    /// Incremental index maintenance: order splice + single-pass
    /// derivation; upper layers receive a value delta.
    Patch,
    /// The batch was too large relative to the document; finalization
    /// re-ran over the mutated links (no re-parse).
    Rebuild,
}

/// One value-bearing node entering or leaving the document, reported to
/// the catalog/value-index layers so they can patch instead of rebuild.
/// `label` is the label the value is indexed under: the owning element
/// for text nodes, the attribute's own name for attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueOp {
    /// Label the value is indexed under.
    pub label: Symbol,
    /// The raw (un-normalised) value.
    pub value: String,
    /// `true` for a value entering the document, `false` for leaving.
    pub added: bool,
}

/// What a commit did, for observability and for the index layers above.
#[derive(Debug, Clone)]
pub struct UpdateStats {
    /// Which commit path ran.
    pub strategy: CommitStrategy,
    /// Number of edits folded.
    pub edits: usize,
    /// Nodes created by the batch (including nodes of inserted
    /// subtrees that were deleted again before commit).
    pub inserted: usize,
    /// Nodes detached by the batch (whole subtrees counted).
    pub deleted: usize,
    /// Labels whose derived per-label state (value indexes, catalog
    /// entries) may have changed — includes every edit site's ancestor
    /// chain, because element atomization concatenates descendant
    /// text. Empty on the rebuild path (everything is dirty).
    pub dirty_labels: Vec<Symbol>,
    /// Balanced add/remove delta of value-bearing nodes. Empty on the
    /// rebuild path.
    pub value_ops: Vec<ValueOp>,
}

/// An in-flight edit batch: a private successor document plus the
/// bookkeeping needed to commit it incrementally. Created by
/// [`Document::begin_update`]; the snapshot it was begun from is never
/// touched.
#[derive(Debug)]
pub struct PendingUpdate {
    doc: Document,
    /// Arena length at `begin_update`: ids `>= old_len` are new.
    old_len: usize,
    /// Live (ordered) node count at `begin_update`.
    old_live: usize,
    /// Topmost inserted roots (parent is an old node), in apply order.
    inserts: Vec<u32>,
    /// Old-pre ranges of deleted old subtrees (unmerged).
    deleted_ranges: Vec<(u32, u32)>,
    /// Node-weight of the batch (created + detached + rewritten), the
    /// input to the strategy choice.
    touched: usize,
    edits: usize,
    inserted: usize,
    deleted: usize,
    value_ops: Vec<ValueOp>,
    dirty: HashSet<Symbol>,
}

impl Document {
    /// Open an edit batch against this snapshot. The snapshot itself is
    /// never mutated; edits go to a cloned successor inside the
    /// returned overlay.
    pub fn begin_update(&self) -> Result<PendingUpdate, UpdateError> {
        if !self.is_finalized() {
            return Err(UpdateError::NotFinalized);
        }
        Ok(PendingUpdate {
            doc: self.clone(),
            old_len: self.len(),
            old_live: self.order.len(),
            inserts: Vec::new(),
            deleted_ranges: Vec::new(),
            touched: 0,
            edits: 0,
            inserted: 0,
            deleted: 0,
            value_ops: Vec::new(),
            dirty: HashSet::new(),
        })
    }
}

/// `true` when `s` is acceptable as an element/attribute name: a
/// conservative XML-Name subset that the serializer can emit verbatim.
fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || matches!(c, '-' | '.' | '_' | ':'))
}

impl PendingUpdate {
    /// Number of edits pending in the overlay (the high-water input for
    /// the `update_overlay_max` gauge).
    #[inline]
    pub fn overlay_len(&self) -> usize {
        self.edits
    }

    /// The strategy [`PendingUpdate::commit`] will use *right now*:
    /// [`CommitStrategy::Patch`] until the batch has touched more than
    /// a quarter of the live nodes. Callers that report spans should
    /// consult this immediately before committing.
    pub fn strategy(&self) -> CommitStrategy {
        if self.touched * 4 > self.old_live {
            CommitStrategy::Rebuild
        } else {
            CommitStrategy::Patch
        }
    }

    /// Apply one edit to the overlay. On success returns the id of the
    /// node the edit created (insertions; the element for
    /// [`NewNode::Leaf`]) or the edited node otherwise. On error the
    /// overlay is unchanged.
    pub fn apply(&mut self, edit: &Edit) -> Result<NodeId, UpdateError> {
        let out = match edit {
            Edit::InsertChild { parent, node } => self.insert_child(*parent, node),
            Edit::InsertSibling { after, node } => self.insert_sibling(*after, node),
            Edit::DeleteSubtree { target } => self.delete_subtree(*target),
            Edit::ReplaceValue { target, value } => self.replace_value(*target, value),
            Edit::RenameLabel { target, label } => self.rename_label(*target, label),
        }?;
        self.edits += 1;
        Ok(out)
    }

    /// Fold the overlay into the successor document. Picks
    /// [`PendingUpdate::strategy`] and returns the successor (a fully
    /// finalized, queryable snapshot) together with what was done.
    pub fn commit(mut self) -> (Document, UpdateStats) {
        let strategy = self.strategy();
        let mut stats = UpdateStats {
            strategy,
            edits: self.edits,
            inserted: self.inserted,
            deleted: self.deleted,
            dirty_labels: Vec::new(),
            value_ops: Vec::new(),
        };
        match strategy {
            CommitStrategy::Rebuild => self.doc.refinalize(),
            CommitStrategy::Patch => {
                self.commit_patch();
                let mut dirty: Vec<Symbol> = self.dirty.iter().copied().collect();
                dirty.sort_unstable();
                stats.dirty_labels = dirty;
                stats.value_ops = std::mem::take(&mut self.value_ops);
            }
        }
        (self.doc, stats)
    }

    // ------------------------------------------------------------------
    // Edit application
    // ------------------------------------------------------------------

    /// Bounds-check `id` and verify it is still attached to the root.
    fn check_alive(&self, id: NodeId) -> Result<usize, UpdateError> {
        let i = id.index();
        if i >= self.doc.len() {
            return Err(UpdateError::UnknownNode(id.0));
        }
        let mut v = i;
        loop {
            let p = self.doc.arena.parent[v];
            if p == NIL {
                if v == self.doc.root().index() {
                    return Ok(i);
                }
                return Err(UpdateError::DetachedNode(id.0));
            }
            v = p as usize;
        }
    }

    /// Mark the labels of `i` and every ancestor dirty: element
    /// atomization concatenates descendant text, so any structural or
    /// textual change below a node can change the values its label is
    /// indexed under.
    fn mark_dirty_up(&mut self, mut i: usize) {
        loop {
            self.dirty.insert(self.doc.arena.labels[i]);
            let p = self.doc.arena.parent[i];
            if p == NIL {
                break;
            }
            i = p as usize;
        }
    }

    fn record_value(&mut self, label: Symbol, value: &str, added: bool) {
        self.value_ops.push(ValueOp {
            label,
            value: value.to_owned(),
            added,
        });
    }

    /// Push the nodes of `spec` into the arena (internally linked for
    /// [`NewNode::Leaf`], unattached otherwise) and return the topmost.
    fn create(&mut self, spec: &NewNode) -> Result<NodeId, UpdateError> {
        match spec {
            NewNode::Element { label } => {
                if !valid_name(label) {
                    return Err(UpdateError::InvalidName(label.clone()));
                }
                let sym = self.doc.interner.intern(label);
                self.inserted += 1;
                Ok(self.doc.arena.push(sym, NodeKind::Element, None))
            }
            NewNode::Leaf { label, text } => {
                if !valid_name(label) {
                    return Err(UpdateError::InvalidName(label.clone()));
                }
                if text.is_empty() {
                    return Err(UpdateError::EmptyText);
                }
                let sym = self.doc.interner.intern(label);
                let tsym = self.doc.interner.intern(TEXT_LABEL);
                let el = self.doc.arena.push(sym, NodeKind::Element, None);
                let t = self.doc.arena.push(tsym, NodeKind::Text, Some(text));
                self.doc.arena.attach(el, t);
                self.inserted += 2;
                Ok(el)
            }
            NewNode::Text { text } => {
                if text.is_empty() {
                    return Err(UpdateError::EmptyText);
                }
                let tsym = self.doc.interner.intern(TEXT_LABEL);
                self.inserted += 1;
                Ok(self.doc.arena.push(tsym, NodeKind::Text, Some(text)))
            }
            NewNode::Attribute { name, value } => {
                if !valid_name(name) {
                    return Err(UpdateError::InvalidName(name.clone()));
                }
                let sym = self.doc.interner.intern(name);
                self.inserted += 1;
                Ok(self.doc.arena.push(sym, NodeKind::Attribute, Some(value)))
            }
        }
    }

    /// Assign depths through the (small) subtree of a freshly attached
    /// node from its parent's depth.
    fn assign_depths(&mut self, root_i: usize) {
        let mut stack = vec![root_i as u32];
        while let Some(i) = stack.pop() {
            let iu = i as usize;
            self.doc.arena.depth[iu] = match self.doc.arena.parent[iu] {
                NIL => 0,
                p => self.doc.arena.depth[p as usize] + 1,
            };
            let mut c = self.doc.arena.first_child[iu];
            while c != NIL {
                stack.push(c);
                c = self.doc.arena.next_sibling[c as usize];
            }
        }
    }

    /// Record catalog/value bookkeeping for a freshly attached `spec`
    /// rooted at `id`, and remember it as a topmost insert when its
    /// parent is an old node.
    fn note_inserted(&mut self, id: NodeId, spec: &NewNode) {
        let i = id.index();
        match spec {
            NewNode::Element { .. } => {
                self.dirty.insert(self.doc.arena.labels[i]);
            }
            NewNode::Leaf { text, .. } => {
                let sym = self.doc.arena.labels[i];
                self.dirty.insert(sym);
                let tsym = match self.doc.arena.first_child[i] {
                    NIL => sym,
                    c => self.doc.arena.labels[c as usize],
                };
                self.dirty.insert(tsym);
                self.record_value(sym, text, true);
            }
            NewNode::Text { text } => {
                self.dirty.insert(self.doc.arena.labels[i]);
                let owner = self.doc.arena.parent[i];
                if owner != NIL {
                    let osym = self.doc.arena.labels[owner as usize];
                    self.record_value(osym, text, true);
                }
            }
            NewNode::Attribute { value, .. } => {
                let sym = self.doc.arena.labels[i];
                self.dirty.insert(sym);
                self.record_value(sym, value, true);
            }
        }
        let parent = self.doc.arena.parent[i];
        if parent != NIL {
            self.mark_dirty_up(parent as usize);
        }
        if (parent as usize) < self.old_len {
            self.inserts.push(id.0);
        }
        self.touched += match spec {
            NewNode::Leaf { .. } => 2,
            _ => 1,
        };
    }

    /// Scan the attribute prefix of element `p` for an attribute named
    /// `sym`; returns the last attribute seen.
    fn attr_prefix(&self, p: usize, sym: Symbol) -> Result<Option<u32>, UpdateError> {
        let mut last_attr = None;
        let mut c = self.doc.arena.first_child[p];
        while c != NIL {
            let cu = c as usize;
            if self.doc.arena.kinds[cu] != NodeKind::Attribute {
                break;
            }
            if self.doc.arena.labels[cu] == sym {
                return Err(UpdateError::DuplicateAttribute(
                    self.doc.interner.resolve(sym).to_owned(),
                ));
            }
            last_attr = Some(c);
            c = self.doc.arena.next_sibling[cu];
        }
        Ok(last_attr)
    }

    fn insert_child(&mut self, parent: NodeId, spec: &NewNode) -> Result<NodeId, UpdateError> {
        let p = self.check_alive(parent)?;
        if self.doc.arena.kinds[p] != NodeKind::Element {
            return Err(UpdateError::NotAnElement(parent.0));
        }
        if let NewNode::Attribute { name, .. } = spec {
            // Attributes join the attribute prefix, not the tail, so
            // serialize→reparse keeps the node order identical.
            if !valid_name(name) {
                return Err(UpdateError::InvalidName(name.clone()));
            }
            let sym = self.doc.interner.intern(name);
            let last_attr = self.attr_prefix(p, sym)?;
            let id = self.create(spec)?;
            match last_attr {
                Some(a) => self.doc.arena.insert_after(NodeId(a), id),
                None => self.doc.arena.insert_first_child(parent, id),
            }
            self.assign_depths(id.index());
            self.note_inserted(id, spec);
            return Ok(id);
        }
        let id = self.create(spec)?;
        self.doc.arena.attach(parent, id);
        self.assign_depths(id.index());
        self.note_inserted(id, spec);
        Ok(id)
    }

    fn insert_sibling(&mut self, after: NodeId, spec: &NewNode) -> Result<NodeId, UpdateError> {
        let a = self.check_alive(after)?;
        let p = self.doc.arena.parent[a];
        if p == NIL {
            return Err(UpdateError::RootImmutable);
        }
        let after_is_attr = self.doc.arena.kinds[a] == NodeKind::Attribute;
        if let NewNode::Attribute { name, .. } = spec {
            if !after_is_attr {
                return Err(UpdateError::AttributeOrder);
            }
            if !valid_name(name) {
                return Err(UpdateError::InvalidName(name.clone()));
            }
            let sym = self.doc.interner.intern(name);
            self.attr_prefix(p as usize, sym)?;
        } else if after_is_attr {
            let next = self.doc.arena.next_sibling[a];
            if next != NIL && self.doc.arena.kinds[next as usize] == NodeKind::Attribute {
                return Err(UpdateError::AttributeOrder);
            }
        }
        let id = self.create(spec)?;
        self.doc.arena.insert_after(after, id);
        self.assign_depths(id.index());
        self.note_inserted(id, spec);
        Ok(id)
    }

    fn delete_subtree(&mut self, target: NodeId) -> Result<NodeId, UpdateError> {
        let t = self.check_alive(target)?;
        if target == self.doc.root() {
            return Err(UpdateError::RootImmutable);
        }
        // Catalog/value bookkeeping over the *current* subtree (it may
        // contain nodes inserted earlier in this batch).
        let mut count = 0usize;
        let mut stack = vec![target.0];
        while let Some(i) = stack.pop() {
            let iu = i as usize;
            count += 1;
            let sym = self.doc.arena.labels[iu];
            self.dirty.insert(sym);
            match self.doc.arena.kinds[iu] {
                NodeKind::Text => {
                    let owner = self.doc.arena.parent[iu];
                    if owner != NIL {
                        let osym = self.doc.arena.labels[owner as usize];
                        let v = self.doc.arena.value(iu).unwrap_or_default().to_owned();
                        self.value_ops.push(ValueOp {
                            label: osym,
                            value: v,
                            added: false,
                        });
                    }
                }
                NodeKind::Attribute => {
                    let v = self.doc.arena.value(iu).unwrap_or_default().to_owned();
                    self.value_ops.push(ValueOp {
                        label: sym,
                        value: v,
                        added: false,
                    });
                }
                NodeKind::Element => {}
            }
            let mut c = self.doc.arena.first_child[iu];
            while c != NIL {
                stack.push(c);
                c = self.doc.arena.next_sibling[c as usize];
            }
        }
        self.mark_dirty_up(t);
        // Old subtrees are contiguous old-pre ranges; the commit splice
        // skips them wholesale. New (this-batch) subtrees have no old
        // ranks — detaching is enough, the aliveness filter at commit
        // drops their insert records.
        if t < self.old_len {
            let lo = self.doc.arena.pre[t];
            let Some(&hi) = self.doc.subtree_hi.get(lo as usize) else {
                return Err(UpdateError::NotFinalized);
            };
            self.deleted_ranges.push((lo, hi));
        }
        self.doc.arena.detach(target);
        self.touched += count;
        self.deleted += count;
        Ok(target)
    }

    fn replace_value(&mut self, target: NodeId, value: &str) -> Result<NodeId, UpdateError> {
        let t = self.check_alive(target)?;
        let kind = self.doc.arena.kinds[t];
        let owner_sym = match kind {
            NodeKind::Text => {
                if value.is_empty() {
                    return Err(UpdateError::EmptyText);
                }
                match self.doc.arena.parent[t] {
                    NIL => self.doc.arena.labels[t],
                    p => self.doc.arena.labels[p as usize],
                }
            }
            NodeKind::Attribute => self.doc.arena.labels[t],
            NodeKind::Element => return Err(UpdateError::KindMismatch(target.0)),
        };
        let old = self.doc.arena.value(t).unwrap_or_default().to_owned();
        self.record_value(owner_sym, &old, false);
        self.record_value(owner_sym, value, true);
        self.doc.arena.set_value(t, value);
        self.mark_dirty_up(t);
        self.touched += 1;
        Ok(target)
    }

    fn rename_label(&mut self, target: NodeId, label: &str) -> Result<NodeId, UpdateError> {
        let t = self.check_alive(target)?;
        let kind = self.doc.arena.kinds[t];
        if kind == NodeKind::Text {
            return Err(UpdateError::KindMismatch(target.0));
        }
        if !valid_name(label) {
            return Err(UpdateError::InvalidName(label.to_owned()));
        }
        let old_sym = self.doc.arena.labels[t];
        let new_sym = self.doc.interner.intern(label);
        if old_sym == new_sym {
            return Ok(target);
        }
        if kind == NodeKind::Attribute {
            let p = self.doc.arena.parent[t];
            if p != NIL {
                // Reject a rename that collides with a sibling attribute.
                let mut c = self.doc.arena.first_child[p as usize];
                while c != NIL {
                    let cu = c as usize;
                    if self.doc.arena.kinds[cu] != NodeKind::Attribute {
                        break;
                    }
                    if cu != t && self.doc.arena.labels[cu] == new_sym {
                        return Err(UpdateError::DuplicateAttribute(label.to_owned()));
                    }
                    c = self.doc.arena.next_sibling[cu];
                }
            }
            let v = self.doc.arena.value(t).unwrap_or_default().to_owned();
            self.record_value(old_sym, &v, false);
            self.record_value(new_sym, &v, true);
        } else {
            // Element rename moves its direct-text values between the
            // two labels' catalog entries.
            let mut c = self.doc.arena.first_child[t];
            while c != NIL {
                let cu = c as usize;
                if self.doc.arena.kinds[cu] == NodeKind::Text {
                    let v = self.doc.arena.value(cu).unwrap_or_default().to_owned();
                    self.record_value(old_sym, &v, false);
                    self.record_value(new_sym, &v, true);
                }
                c = self.doc.arena.next_sibling[cu];
            }
        }
        self.doc.arena.set_label(t, new_sym);
        // Both labels' postings change: the node leaves one and joins
        // the other, so neither side's derived indexes may be carried.
        self.dirty.insert(old_sym);
        self.dirty.insert(new_sym);
        self.mark_dirty_up(t);
        self.touched += 1;
        Ok(target)
    }

    // ------------------------------------------------------------------
    // Patch commit
    // ------------------------------------------------------------------

    /// Splice the document order and patch every derived structure.
    fn commit_patch(&mut self) {
        // Merge the deleted old-pre ranges (overlaps arise when a batch
        // deletes both a subtree and, earlier, something inside it).
        let mut ranges = std::mem::take(&mut self.deleted_ranges);
        ranges.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some((_, mhi)) if lo <= *mhi => *mhi = (*mhi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }

        // Anchor each surviving topmost insert: emit after old rank
        // `q`, where `q` is the old subtree end of the nearest *old*
        // preceding sibling, or the parent's own old rank when none.
        // Sorting by (q, depth desc, sibling position) interleaves
        // groups that share an anchor correctly: a deeper parent's
        // children close before a shallower node follows.
        struct Anchor {
            q: u32,
            depth: u32,
            seq: u32,
            id: u32,
        }
        let mut anchors: Vec<Anchor> = Vec::with_capacity(self.inserts.len());
        let inserts = std::mem::take(&mut self.inserts);
        for id in inserts {
            if self.check_alive(NodeId(id)).is_err() {
                continue; // inserted, then deleted in the same batch
            }
            let i = id as usize;
            let mut seq = 0u32;
            let mut s = self.doc.arena.prev_sibling[i];
            while s != NIL && (s as usize) >= self.old_len {
                seq += 1;
                s = self.doc.arena.prev_sibling[s as usize];
            }
            let q = if s != NIL {
                let pre = self.doc.arena.pre[s as usize];
                self.doc
                    .subtree_hi
                    .get(pre as usize)
                    .copied()
                    .unwrap_or(pre)
            } else {
                let p = self.doc.arena.parent[i];
                self.doc.arena.pre[p as usize]
            };
            anchors.push(Anchor {
                q,
                depth: self.doc.arena.depth[i],
                seq,
                id,
            });
        }
        anchors.sort_unstable_by(|a, b| {
            (a.q, std::cmp::Reverse(a.depth), a.seq).cmp(&(b.q, std::cmp::Reverse(b.depth), b.seq))
        });

        // Splice: copy the old order, skip deleted ranges (clearing the
        // orphans' ranks), and emit each inserted subtree — a DFS over
        // its links; it contains only new nodes — right after its
        // anchor rank.
        let old_order = std::mem::take(&mut self.doc.order);
        let mut new_order: Vec<u32> = Vec::with_capacity(old_order.len() + self.inserted);
        let mut scratch: Vec<u32> = Vec::new();
        let mut ai = 0usize;
        let mut di = 0usize;
        for (r, &node) in old_order.iter().enumerate() {
            let r32 = r as u32;
            while di < merged.len() && merged[di].1 < r32 {
                di += 1;
            }
            if di < merged.len() && merged[di].0 <= r32 {
                let nu = node as usize;
                self.doc.arena.pre[nu] = NIL;
                self.doc.arena.post[nu] = NIL;
            } else {
                new_order.push(node);
            }
            while ai < anchors.len() && anchors[ai].q == r32 {
                // Pre-order DFS of the inserted subtree.
                scratch.clear();
                scratch.push(anchors[ai].id);
                while let Some(i) = scratch.pop() {
                    new_order.push(i);
                    let iu = i as usize;
                    let mut kids: Vec<u32> = Vec::new();
                    let mut c = self.doc.arena.first_child[iu];
                    while c != NIL {
                        kids.push(c);
                        c = self.doc.arena.next_sibling[c as usize];
                    }
                    for &k in kids.iter().rev() {
                        scratch.push(k);
                    }
                }
                ai += 1;
            }
        }

        self.doc.adopt_order(new_order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::bib::bib;

    /// Full structural equivalence against a serialize→reparse oracle:
    /// same labels/kinds/values/depths in document order, same pre/post
    /// ranks, and agreeing index probes.
    fn assert_matches_oracle(doc: &Document) {
        let xml = doc.to_xml(doc.root());
        let oracle = Document::parse_str(&xml).unwrap_or_else(|e| {
            panic!("mutated document does not re-parse: {e}\n{xml}");
        });
        assert_eq!(doc.stats().total_nodes(), oracle.len(), "node counts");
        for pre in 0..oracle.len() as u32 {
            let a = doc.node_at_pre(pre).unwrap();
            let b = oracle.node_at_pre(pre).unwrap();
            assert_eq!(doc.label(a), oracle.label(b), "label at pre {pre}");
            assert_eq!(doc.kind(a), oracle.kind(b), "kind at pre {pre}");
            assert_eq!(doc.value(a), oracle.value(b), "value at pre {pre}");
            assert_eq!(doc.depth(a), oracle.depth(b), "depth at pre {pre}");
            assert_eq!(doc.post(a), oracle.post(b), "post at pre {pre}");
        }
        // Index probes: postings and subtree extents agree everywhere.
        for l in oracle.labels() {
            let a: Vec<u32> = doc.nodes_labeled(l).iter().map(|&n| doc.pre(n)).collect();
            let b: Vec<u32> = oracle
                .nodes_labeled(l)
                .iter()
                .map(|&n| oracle.pre(n))
                .collect();
            assert_eq!(a, b, "postings for {l}");
        }
        // The pre-keyed parent and extent columns, read directly by the
        // MLCA walks and the SQL view.
        assert_eq!(doc.parent_pres(), oracle.parent_pres(), "parent column");
        assert_eq!(doc.extents(), oracle.extents(), "extent column");
        for pre in 0..oracle.len() as u32 {
            let a = doc.node_at_pre(pre).unwrap();
            let b = oracle.node_at_pre(pre).unwrap();
            assert_eq!(
                doc.descendants(a).count(),
                oracle.descendants(b).count(),
                "descendant count at pre {pre}"
            );
        }
        // LCA climbs over the patched columns agree with the rebuilt
        // document for every pair of label heads.
        let heads: Vec<u32> = oracle
            .labels()
            .iter()
            .filter_map(|l| doc.nodes_labeled(l).first().map(|&n| doc.pre(n)))
            .collect();
        for &x in &heads {
            for &y in &heads {
                let (a1, b1) = (doc.node_at_pre(x).unwrap(), doc.node_at_pre(y).unwrap());
                let (a2, b2) = (
                    oracle.node_at_pre(x).unwrap(),
                    oracle.node_at_pre(y).unwrap(),
                );
                assert_eq!(
                    doc.pre(doc.lca(a1, b1)),
                    oracle.pre(oracle.lca(a2, b2)),
                    "lca of pres {x},{y}"
                );
            }
        }
    }

    #[test]
    fn insert_leaf_patches_order_and_index() {
        let doc = bib();
        let book = doc.nodes_labeled("book")[0];
        let mut up = doc.begin_update().unwrap();
        up.apply(&Edit::InsertChild {
            parent: book,
            node: NewNode::Leaf {
                label: "isbn".into(),
                text: "0-201-63346-9".into(),
            },
        })
        .unwrap();
        assert_eq!(up.strategy(), CommitStrategy::Patch);
        let (next, stats) = up.commit();
        assert_eq!(stats.strategy, CommitStrategy::Patch);
        assert_eq!(stats.inserted, 2);
        assert_eq!(next.nodes_labeled("isbn").len(), 1);
        assert_eq!(next.len(), doc.len() + 2);
        assert_matches_oracle(&next);
        // The original snapshot is untouched.
        assert!(doc.nodes_labeled("isbn").is_empty());
        assert_eq!(doc.stats().total_nodes(), next.stats().total_nodes() - 2);
    }

    #[test]
    fn delete_subtree_patches_ranges() {
        let doc = bib();
        let book = doc.nodes_labeled("book")[1];
        let mut up = doc.begin_update().unwrap();
        up.apply(&Edit::DeleteSubtree { target: book }).unwrap();
        let (next, stats) = up.commit();
        assert!(stats.deleted > 0);
        assert_eq!(
            next.nodes_labeled("book").len(),
            doc.nodes_labeled("book").len() - 1
        );
        assert_matches_oracle(&next);
    }

    #[test]
    fn replace_and_rename_patch_values() {
        let doc = bib();
        let title = doc.nodes_labeled("title")[0];
        let text = doc.first_child(title).unwrap();
        let mut up = doc.begin_update().unwrap();
        up.apply(&Edit::ReplaceValue {
            target: text,
            value: "Rewritten Title".into(),
        })
        .unwrap();
        up.apply(&Edit::RenameLabel {
            target: title,
            label: "headline".into(),
        })
        .unwrap();
        let (next, stats) = up.commit();
        assert_eq!(stats.strategy, CommitStrategy::Patch);
        let h = next.nodes_labeled("headline")[0];
        assert_eq!(next.string_value(h), "Rewritten Title");
        // Balanced delta: one value replaced (2 ops) + rename moving
        // the (replaced) direct text between labels (2 ops).
        assert_eq!(stats.value_ops.len(), 4);
        assert_matches_oracle(&next);
    }

    #[test]
    fn mixed_batch_with_nested_insertions() {
        let doc = bib();
        let bib_root = doc.root();
        let first_book = doc.nodes_labeled("book")[0];
        let mut up = doc.begin_update().unwrap();
        // A new book built up over several edits, inserted mid-document.
        let nb = up
            .apply(&Edit::InsertSibling {
                after: first_book,
                node: NewNode::Element {
                    label: "book".into(),
                },
            })
            .unwrap();
        up.apply(&Edit::InsertChild {
            parent: nb,
            node: NewNode::Attribute {
                name: "year".into(),
                value: "2025".into(),
            },
        })
        .unwrap();
        up.apply(&Edit::InsertChild {
            parent: nb,
            node: NewNode::Leaf {
                label: "title".into(),
                text: "Incremental Indexing".into(),
            },
        })
        .unwrap();
        // Plus an appended sibling at the end of the root.
        up.apply(&Edit::InsertChild {
            parent: bib_root,
            node: NewNode::Leaf {
                label: "note".into(),
                text: "appended last".into(),
            },
        })
        .unwrap();
        let (next, stats) = up.commit();
        assert_eq!(stats.strategy, CommitStrategy::Patch);
        assert_eq!(
            next.nodes_labeled("book").len(),
            doc.nodes_labeled("book").len() + 1
        );
        // The new book sits right after the first one in document order.
        let books = next.nodes_labeled("book");
        assert_eq!(next.pre(books[1]), next.pre(nb));
        assert_matches_oracle(&next);
    }

    #[test]
    fn insert_then_delete_in_same_batch_is_a_noop() {
        let doc = bib();
        let root = doc.root();
        let mut up = doc.begin_update().unwrap();
        let e = up
            .apply(&Edit::InsertChild {
                parent: root,
                node: NewNode::Leaf {
                    label: "ghost".into(),
                    text: "gone".into(),
                },
            })
            .unwrap();
        up.apply(&Edit::DeleteSubtree { target: e }).unwrap();
        let (next, _) = up.commit();
        assert!(next.nodes_labeled("ghost").is_empty());
        assert_eq!(next.stats().total_nodes(), doc.stats().total_nodes());
        assert_matches_oracle(&next);
    }

    #[test]
    fn large_batch_falls_back_to_rebuild() {
        let doc = bib();
        let mut up = doc.begin_update().unwrap();
        for book in doc.nodes_labeled("book") {
            up.apply(&Edit::DeleteSubtree { target: *book }).unwrap();
        }
        assert_eq!(up.strategy(), CommitStrategy::Rebuild);
        let (next, stats) = up.commit();
        assert_eq!(stats.strategy, CommitStrategy::Rebuild);
        assert!(stats.value_ops.is_empty());
        assert!(next.nodes_labeled("book").is_empty());
        assert_matches_oracle(&next);
    }

    #[test]
    fn edit_validation_rejects_bad_targets() {
        let doc = bib();
        let root = doc.root();
        let title = doc.nodes_labeled("title")[0];
        let year = doc.nodes_labeled("year")[0]; // attribute
        let mut up = doc.begin_update().unwrap();
        assert_eq!(
            up.apply(&Edit::DeleteSubtree { target: root }),
            Err(UpdateError::RootImmutable)
        );
        assert_eq!(
            up.apply(&Edit::InsertSibling {
                after: root,
                node: NewNode::Element { label: "x".into() },
            }),
            Err(UpdateError::RootImmutable)
        );
        assert_eq!(
            up.apply(&Edit::ReplaceValue {
                target: title,
                value: "x".into(),
            }),
            Err(UpdateError::KindMismatch(title.0))
        );
        assert_eq!(
            up.apply(&Edit::InsertChild {
                parent: root,
                node: NewNode::Element {
                    label: "<bad".into()
                },
            }),
            Err(UpdateError::InvalidName("<bad".into()))
        );
        assert_eq!(
            up.apply(&Edit::InsertChild {
                parent: root,
                node: NewNode::Text { text: "".into() },
            }),
            Err(UpdateError::EmptyText)
        );
        assert_eq!(
            up.apply(&Edit::DeleteSubtree {
                target: NodeId(9_999_999),
            }),
            Err(UpdateError::UnknownNode(9_999_999))
        );
        // Duplicate attribute on the same parent.
        let book = doc.nodes_labeled("book")[0];
        assert_eq!(
            up.apply(&Edit::InsertChild {
                parent: book,
                node: NewNode::Attribute {
                    name: "year".into(),
                    value: "1999".into(),
                },
            }),
            Err(UpdateError::DuplicateAttribute("year".into()))
        );
        // Appending another attribute after the last one is legal.
        assert_eq!(
            up.apply(&Edit::InsertSibling {
                after: year,
                node: NewNode::Attribute {
                    name: "month".into(),
                    value: "5".into(),
                },
            })
            .map(|_| ()),
            Ok(()),
            "appending after the last attribute is fine"
        );
        // Deleting a node, then touching it again, is a DetachedNode error.
        let b2 = doc.nodes_labeled("book")[1];
        up.apply(&Edit::DeleteSubtree { target: b2 }).unwrap();
        assert_eq!(
            up.apply(&Edit::RenameLabel {
                target: b2,
                label: "tome".into(),
            }),
            Err(UpdateError::DetachedNode(b2.0))
        );
        // Failed edits did not advance the overlay beyond the two
        // successful ones.
        assert_eq!(up.overlay_len(), 2);
    }

    #[test]
    fn attribute_insert_joins_the_prefix() {
        let doc = Document::parse_str("<r><e a=\"1\">t</e></r>").unwrap();
        let e = doc.nodes_labeled("e")[0];
        let mut up = doc.begin_update().unwrap();
        up.apply(&Edit::InsertChild {
            parent: e,
            node: NewNode::Attribute {
                name: "b".into(),
                value: "2".into(),
            },
        })
        .unwrap();
        let (next, _) = up.commit();
        // The new attribute lands after `a`, before the text.
        let b = next.nodes_labeled("b")[0];
        let a = next.nodes_labeled("a")[0];
        assert_eq!(next.pre(b), next.pre(a) + 1);
        assert_matches_oracle(&next);
    }

    #[test]
    fn dirty_labels_cover_ancestors() {
        let doc = bib();
        let title = doc.nodes_labeled("title")[0];
        let text = doc.first_child(title).unwrap();
        let mut up = doc.begin_update().unwrap();
        up.apply(&Edit::ReplaceValue {
            target: text,
            value: "New".into(),
        })
        .unwrap();
        let (next, stats) = up.commit();
        let dirty: Vec<&str> = stats
            .dirty_labels
            .iter()
            .map(|&s| next.interner().resolve(s))
            .collect();
        // The edited text's owner and every ancestor: atomization of
        // `book` and `bib` sees the changed text too.
        assert!(dirty.contains(&"title"), "{dirty:?}");
        assert!(dirty.contains(&"book"), "{dirty:?}");
        assert!(dirty.contains(&"bib"), "{dirty:?}");
        assert!(!dirty.contains(&"author"), "{dirty:?}");
    }

    #[test]
    fn unfinalized_documents_refuse_updates() {
        let d = Document::new("r");
        assert!(matches!(d.begin_update(), Err(UpdateError::NotFinalized)));
    }

    /// Patch against rebuild on the same edit batch at paper scale: a
    /// title rewrite plus a leaf insert (the `update-patch` row of
    /// `eval_perf`), committed once through each strategy, which must
    /// agree on the columns. Prints median and quartiles of each; run
    /// with `cargo test --release -p xmldb --lib commit_strategies --
    /// --ignored --nocapture`.
    #[test]
    #[ignore = "timing at paper scale; run with --ignored --nocapture"]
    fn commit_strategies_at_paper_scale() {
        use crate::datasets::dblp::{generate, DblpConfig};
        use std::time::{Duration, Instant};
        let doc = generate(&DblpConfig::default());
        let titles = doc.nodes_labeled("title");
        let batch = |i: usize| {
            let title = titles[(i * 7919) % titles.len()];
            let mut up = doc.begin_update().unwrap();
            let text = doc.first_child(title).unwrap();
            up.apply(&Edit::ReplaceValue {
                target: text,
                value: format!("Rewritten Title {i}"),
            })
            .unwrap();
            let node = NewNode::Leaf {
                label: "note".into(),
                text: format!("bench edit {i}"),
            };
            let parent = doc.parent(title).unwrap();
            up.apply(&Edit::InsertChild { parent, node }).unwrap();
            up
        };
        let (mut patch, mut rebuild) = (Vec::new(), Vec::new());
        for i in 0..41 {
            let up = batch(i);
            let t = Instant::now();
            let (patched, stats) = up.commit();
            patch.push(t.elapsed());
            assert_eq!(stats.strategy, CommitStrategy::Patch);
            let mut up = batch(i);
            let t = Instant::now();
            up.doc.refinalize();
            rebuild.push(t.elapsed());
            assert_eq!(patched.parent_pres(), up.doc.parent_pres());
            assert_eq!(patched.extents(), up.doc.extents());
        }
        let quartiles = |v: &mut Vec<Duration>| {
            v.sort_unstable();
            let ms = |q: usize| v[q * (v.len() - 1) / 4].as_secs_f64() * 1e3;
            format!("p50 {:.3} ms (q1 {:.3}, q3 {:.3})", ms(2), ms(1), ms(3))
        };
        println!(
            "commit over {} nodes: patch {}; rebuild {}",
            doc.stats().total_nodes(),
            quartiles(&mut patch),
            quartiles(&mut rebuild)
        );
    }
}
