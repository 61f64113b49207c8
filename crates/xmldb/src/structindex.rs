//! Precomputed structural index: constant-time LCA, logarithmic
//! level-ancestor queries, and the pre-keyed interval columns of a
//! finalized document.
//!
//! Built once in [`crate::Document::finalize`] (and on the update patch
//! path) from one stack pass over the document order, it trades O(n)
//! space for:
//!
//! - **LCA in O(1)** — the classic Euler-tour reduction to range-minimum:
//!   record every node each time the tour enters or returns to it (2n−1
//!   entries), then the LCA of `a` and `b` is the minimum-depth entry
//!   between their first occurrences. The RMQ is block-decomposed: the
//!   tour is cut into fixed-size blocks, a sparse table answers the
//!   block-interior span, and the two boundary blocks are scanned
//!   directly (≤ 2·`BLOCK` sequential `u32` reads — cache-resident).
//!   That keeps the table at O(n/B · log(n/B)) words instead of the
//!   O(n log n) of a full sparse table, which at the 100×-scale corpus
//!   is the difference between ~45 MB and ~1.5 GB of index.
//! - **Level ancestor in O(log n)** — binary lifting: `up[k][v]` is the
//!   2^k-th ancestor of `v`, so the ancestor of `v` at any target depth
//!   is reached by jumping along the binary expansion of the depth
//!   difference. This gives `child_toward(anc, desc)` — the child of
//!   `anc` on the path to `desc` — as a single level-ancestor query.
//! - **Subtree extent and parent in O(1), keyed by pre rank** — the
//!   largest pre rank inside each node's subtree and the pre rank of its
//!   parent. The extent replaces the walk-to-next-sibling scan behind the
//!   label-count primitives; together the two columns are the interval
//!   encoding the MLCA predicate (crate `xquery`) and the SQL backend's
//!   view read. The MLCA climbs the parent column rather than querying
//!   the LCA and level-ancestor tables: on the shallow documents here an
//!   O(depth) walk over one column is cheaper than the O(1) RMQ's
//!   scattered loads. Those tables serve [`crate::Document::lca`] and
//!   [`crate::Document::child_toward`].
//!
//! The index holds only plain `Vec<u32>` tables, so it is `Send + Sync`
//! for free and clones with the document.

use crate::arena::{NodeArena, NIL};
use crate::node::NodeId;

/// Euler-tour RMQ block size: boundary scans touch at most `2 * BLOCK`
/// consecutive depth words (4 cache lines each) while the sparse table
/// shrinks by a factor of `BLOCK`.
const BLOCK: usize = 32;

/// Euler-tour + sparse-table RMQ + binary-lifting tables for one
/// finalized document. Node identity is the arena index (`NodeId.0`).
#[derive(Debug, Clone)]
pub(crate) struct StructIndex {
    /// Euler tour: arena index of the node at each tour step (2n−1 long).
    euler: Vec<u32>,
    /// Depth of `euler[i]` — the array the RMQ minimises over.
    euler_depth: Vec<u32>,
    /// First tour position of each node; `u32::MAX` for unattached nodes.
    first: Vec<u32>,
    /// Tour position of the minimum-depth entry inside each block of
    /// `BLOCK` consecutive tour steps.
    block_min: Vec<u32>,
    /// `sparse[k][j]`: tour position of the minimum-depth entry across
    /// the block window `[j, j + 2^k)`.
    sparse: Vec<Vec<u32>>,
    /// `up[k][v]`: arena index of the 2^k-th ancestor of `v` (saturates
    /// at the root).
    up: Vec<Vec<u32>>,
    /// Pre rank of each node's parent, keyed by pre rank ([`NIL`] for
    /// the root).
    parent_pre: Vec<u32>,
    /// Largest pre rank inside each node's subtree (inclusive), keyed
    /// by pre rank.
    subtree_hi: Vec<u32>,
}

/// Block minima and the block-level sparse table over one Euler-tour
/// depth array.
fn rmq_tables(euler_depth: &[u32]) -> (Vec<u32>, Vec<Vec<u32>>) {
    let m = euler_depth.len();
    let nb = m.div_ceil(BLOCK);
    let block_min: Vec<u32> = (0..nb)
        .map(|j| {
            let lo = j * BLOCK;
            let hi = (lo + BLOCK).min(m);
            let mut best = lo;
            for i in lo + 1..hi {
                if euler_depth[i] < euler_depth[best] {
                    best = i;
                }
            }
            best as u32
        })
        .collect();
    let levels = (usize::BITS as usize - nb.leading_zeros() as usize).max(1);
    let mut sparse: Vec<Vec<u32>> = Vec::with_capacity(levels);
    sparse.push(block_min.clone());
    let mut k = 1;
    while (1usize << k) <= nb {
        let half = 1usize << (k - 1);
        let prev = &sparse[k - 1];
        let row: Vec<u32> = (0..=nb - (1 << k))
            .map(|j| {
                let a = prev[j];
                let b = prev[j + half];
                if euler_depth[a as usize] <= euler_depth[b as usize] {
                    a
                } else {
                    b
                }
            })
            .collect();
        sparse.push(row);
        k += 1;
    }
    (block_min, sparse)
}

impl StructIndex {
    /// Build the index from a document order: one stack pass over the
    /// pre-ranked nodes, taking over `prior`'s binary-lifting rows when
    /// the order comes from a patch commit.
    ///
    /// Requirements: `arena.pre` matches `order` (`pre[order[r]] == r`)
    /// and `arena.depth` is correct for every node in `order`. With a
    /// `prior` index, every arena index `>= prior.up[0].len()` must be a
    /// newly appended node: because the edit API never *moves* a node,
    /// the parent of every survivor is unchanged, so the prior lifting
    /// rows stay valid verbatim and only rows for appended nodes are
    /// computed. The pass derives the Euler tour, first occurrences,
    /// the pre-keyed parent and extent columns, and post-order ranks
    /// (written back into `arena.post`) in one sweep — no per-node
    /// child-list allocation, no pre-rank sort.
    pub(crate) fn from_order(
        arena: &mut NodeArena,
        order: &[u32],
        prior: Option<StructIndex>,
    ) -> Self {
        let n = arena.len();
        let live = order.len();
        let mut euler = Vec::with_capacity(2 * live);
        let mut euler_depth: Vec<u32> = Vec::with_capacity(2 * live);
        let mut first = vec![u32::MAX; n];
        let mut parent_pre = vec![NIL; live];
        let mut subtree_hi = vec![0u32; live];
        // Pre-order with depths is a complete tree encoding: a node's
        // subtree ends right before the next node at its depth or
        // shallower. Closing a node appends a revisit of its parent to
        // the tour and assigns its post rank (pops cascade bottom-up,
        // which is exactly post order). After the pops the stack top is
        // the next node's parent. A `None` past the last rank closes
        // every node still open.
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
                if let Some(&p) = stack.last() {
                    euler.push(p);
                    euler_depth.push(arena.depth[p as usize]);
                }
            }
            let Some((v, dv)) = next else { break };
            if let Some(&p) = stack.last() {
                parent_pre[rank] = arena.pre[p as usize];
            }
            first[v as usize] = euler.len() as u32;
            euler.push(v);
            euler_depth.push(dv);
            stack.push(v);
        }
        debug_assert_eq!(euler.len(), 2 * live - 1);

        let (block_min, sparse) = rmq_tables(&euler_depth);

        // Binary-lifting table. The root points at itself, so over-long
        // jumps saturate instead of needing bounds checks. Prior rows
        // are reused, rows grow only over the appended tail, and new
        // levels are added only if the tree got deeper than the levels
        // cover.
        let mut up = prior.map_or_else(|| vec![Vec::new()], |p| p.up);
        let old_n = up[0].len();
        for k in 0..up.len() {
            let (head, tail) = up.split_at_mut(k);
            let row = &mut tail[0];
            for i in old_n..n {
                row.push(match head.last() {
                    None if arena.parent[i] == NIL => i as u32,
                    None => arena.parent[i],
                    Some(prev) => prev[prev[i] as usize],
                });
            }
        }
        let max_new_depth = (old_n..n).map(|i| arena.depth[i]).max().unwrap_or(0);
        let needed = ((u32::BITS - max_new_depth.leading_zeros()).max(1) as usize).max(up.len());
        while up.len() < needed {
            let prev = &up[up.len() - 1];
            let row: Vec<u32> = (0..n).map(|i| prev[prev[i] as usize]).collect();
            up.push(row);
        }

        StructIndex {
            euler,
            euler_depth,
            first,
            block_min,
            sparse,
            up,
            parent_pre,
            subtree_hi,
        }
    }

    /// Position of the minimum-depth tour entry in `[l, r]`, both
    /// inside one block — a short sequential scan.
    #[inline]
    fn scan_min(&self, l: usize, r: usize) -> usize {
        let mut best = l;
        for i in l + 1..=r {
            if self.euler_depth[i] < self.euler_depth[best] {
                best = i;
            }
        }
        best
    }

    /// Tour position of the minimum-depth entry in `[l, r]` (inclusive):
    /// boundary blocks by scan, the interior by the block sparse table.
    /// Any minimum-depth position is equally valid for LCA — every
    /// entry at that depth between two first occurrences is the same
    /// node.
    #[inline]
    fn rmq(&self, l: usize, r: usize) -> usize {
        debug_assert!(l <= r && r < self.euler.len());
        let (bl, br) = (l / BLOCK, r / BLOCK);
        if bl == br {
            return self.scan_min(l, r);
        }
        let left = self.scan_min(l, (bl + 1) * BLOCK - 1);
        let right = self.scan_min(br * BLOCK, r);
        let mut best = if self.euler_depth[left] <= self.euler_depth[right] {
            left
        } else {
            right
        };
        let (lo, hi) = (bl + 1, br); // interior block window [lo, hi)
        if lo < hi {
            let k = (usize::BITS - 1 - (hi - lo).leading_zeros()) as usize;
            let a = self.sparse[k][lo] as usize;
            let b = self.sparse[k][hi - (1 << k)] as usize;
            for cand in [a, b] {
                if self.euler_depth[cand] < self.euler_depth[best] {
                    best = cand;
                }
            }
        }
        best
    }

    /// Lowest common ancestor of two (attached) nodes, O(1).
    #[inline]
    pub(crate) fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut l, mut r) = (
            self.first[a.index()] as usize,
            self.first[b.index()] as usize,
        );
        debug_assert!(
            l != u32::MAX as usize && r != u32::MAX as usize,
            "lca of unattached node"
        );
        if l > r {
            std::mem::swap(&mut l, &mut r);
        }
        NodeId(self.euler[self.rmq(l, r)])
    }

    /// The ancestor of `v`, which sits at depth `depth`, at depth
    /// `target` (which must not exceed `depth`); `v` itself when the
    /// depths match. O(log depth).
    #[inline]
    pub(crate) fn ancestor_at_depth(&self, v: NodeId, depth: u32, target: u32) -> NodeId {
        let mut cur = v.index() as u32;
        debug_assert!(target <= depth);
        let mut steps = depth - target;
        let mut k = 0;
        while steps != 0 {
            if steps & 1 == 1 {
                cur = self.up[k][cur as usize];
            }
            steps >>= 1;
            k += 1;
        }
        NodeId(cur)
    }

    /// Largest pre rank inside the subtree of the node at pre rank
    /// `pre`, O(1).
    #[inline]
    pub(crate) fn subtree_hi(&self, pre: u32) -> u32 {
        self.subtree_hi[pre as usize]
    }

    /// The pre-keyed parent column (see [`crate::Document::parent_pres`]).
    #[inline]
    pub(crate) fn parent_pres(&self) -> &[u32] {
        &self.parent_pre
    }

    /// The pre-keyed extent column (see [`crate::Document::extents`]).
    #[inline]
    pub(crate) fn extents(&self) -> &[u32] {
        &self.subtree_hi
    }

    /// Bytes held by the index tables (for memory accounting).
    pub(crate) fn bytes(&self) -> usize {
        let u = std::mem::size_of::<u32>();
        (self.euler.len()
            + self.euler_depth.len()
            + self.first.len()
            + self.block_min.len()
            + self.sparse.iter().map(Vec::len).sum::<usize>()
            + self.up.iter().map(Vec::len).sum::<usize>()
            + self.parent_pre.len()
            + self.subtree_hi.len())
            * u
    }
}
