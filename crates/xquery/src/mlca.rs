//! Meaningful Lowest Common Ancestor (MLCA) semantics — the engine of
//! the Schema-Free XQuery `mqf()` predicate.
//!
//! ## The idea (paper, Sec. 2)
//!
//! Keywords expressed together must match nodes that are "close
//! together" in a *structurally meaningful* way. For the query "find the
//! director of Gone with the Wind" the title must bind to a *movie*
//! title, not a *book* title, because only the former has a meaningful
//! structural relationship with a director — and this must fall out of
//! the data, not of schema knowledge.
//!
//! ## The rule
//!
//! Let `a`, `b` be nodes and `c = lca(a, b)`. The pair is **meaningfully
//! related** iff no node with `a`'s label occurs strictly closer to `b`
//! than `c` allows, and vice versa. Formally, `(a, b)` is *not*
//! meaningful iff there exists `a'` with `label(a') = label(a)` such
//! that `lca(a', b)` is a proper descendant of `c` (or symmetrically a
//! `b'` for `a`).
//!
//! Since `lca(a', b)` is a proper descendant of `c` exactly when `a'`
//! lies inside the subtree of the child of `c` on the path towards `b`,
//! the test reduces to two *label-in-subtree* probes over the label
//! postings' pre ranks ([`xmldb::Document::label_pres`]).
//!
//! ## One body for both backends
//!
//! [`related_pres`] is the only implementation of the pairwise test.
//! It works on pre ranks and reads nothing but the document's pre-keyed
//! parent and extent columns ([`xmldb::Document::parent_pres`],
//! [`xmldb::Document::extents`]) and the postings. The LCA and both
//! path children come from `xmldb`'s pre-rank climb
//! ([`xmldb::axes::lca_pre`], [`xmldb::axes::child_toward_pre`]), the
//! same two functions behind [`xmldb::Document::lca`] and
//! [`xmldb::Document::child_toward`]. The XQuery engine reaches the test
//! through [`meaningfully_related`] and the partner enumeration; the SQL
//! executor (crate `sqlq`) calls it on its pre-rank rows.
//!
//! ### Consequences (all covered by tests below)
//!
//! - A `director` pairs with the `title` of *its own* movie, never with
//!   a title of a sibling movie, and never with a `book` title when some
//!   movie title exists nearer the director.
//! - Ancestor/descendant pairs are meaningful (nothing can be nearer).
//! - Two distinct nodes with the *same* label are never meaningful
//!   (each is "nearer to itself"); such pairs are related by *value
//!   joins* instead, which is exactly how NaLIX translates them.
//!
//! A set of nodes is meaningfully related iff all its unordered pairs
//! are — the n-way `mqf($v1 … $vn)` used in translated queries.

use xmldb::axes::{child_toward_pre, lca_pre};
use xmldb::{Document, NodeId, SubtreeProbeCursor};

/// Is the pair `(a, b)` meaningfully related under MLCA semantics?
///
/// `a == b` is trivially meaningful. This is [`related_pres`] with
/// fresh cursors.
pub fn meaningfully_related(doc: &Document, a: NodeId, b: NodeId) -> bool {
    related_pres(doc, doc.pre(a), doc.pre(b), &mut PartnerProbe::default())
}

/// Is the pair of nodes at pre ranks `a` and `b` meaningfully related?
/// The one pairwise MLCA body (see the module docs).
///
/// The cursors are per-label: `probe.anchor_label` tracks `label(a)`'s
/// postings and `probe.partner_label` tracks `label(b)`'s, which is
/// exactly the fixed-label situation of the partner sweep below. Pre
/// ranks outside the document relate to nothing but themselves.
pub fn related_pres(doc: &Document, a: u32, b: u32, probe: &mut PartnerProbe) -> bool {
    if a == b {
        return true;
    }
    let (parent, extent) = (doc.parent_pres(), doc.extents());
    // `c` is the LCA and `ca` is `a`'s path child below it.
    let Some((c, ca)) = lca_pre(parent, extent, a, b) else {
        return false;
    };
    let cb = child_toward_pre(parent, c, b);
    let hi = |p: u32| extent.get(p as usize).copied().unwrap_or(p);
    let postings_of = |p: u32| doc.node_at_pre(p).map(|n| doc.label_pres(doc.label_sym(n)));
    // Probe the b-side: a node labelled like `a` strictly below `c`
    // towards `b` would be nearer to `b` than `a` is.
    if let (Some(cb), Some(pres)) = (cb, postings_of(a)) {
        if probe.anchor_label.any(pres, cb, hi(cb)) {
            return false;
        }
    }
    // Symmetric probe on the a-side.
    if let (Some(ca), Some(pres)) = (ca, postings_of(b)) {
        if probe.partner_label.any(pres, ca, hi(ca)) {
            return false;
        }
    }
    true
}

/// Is the whole set pairwise meaningfully related?
pub fn set_meaningfully_related(doc: &Document, nodes: &[NodeId]) -> bool {
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            if !meaningfully_related(doc, a, b) {
                return false;
            }
        }
    }
    true
}

/// All nodes labelled `with_label` that are meaningfully related to
/// `anchor`, in document order. This is the `mqf`-as-generator view used
/// by the keyword-ish example applications. Linear in the label's node
/// count; use [`meaningful_partners_indexed`] on large documents.
pub fn meaningful_partners(doc: &Document, anchor: NodeId, with_label: &str) -> Vec<NodeId> {
    doc.nodes_labeled(with_label)
        .iter()
        .copied()
        .filter(|&n| meaningfully_related(doc, anchor, n))
        .collect()
}

/// Index-driven partner enumeration: all nodes with label `label` that
/// are meaningfully related to `anchor`, typically in O(depth · log n +
/// answers) instead of scanning every `label` node.
///
/// The algorithm walks `anchor`'s ancestors outward, range-scanning the
/// label index for candidates in each newly exposed subtree ring, and
/// stops early using the **blocking property** of MLCA: if any
/// `label`-node exists in the subtree of ancestor `A` of the anchor,
/// then for every candidate `b` whose LCA with the anchor lies strictly
/// above `A`, that node blocks the pair — it carries `b`'s label and
/// sits inside `child_toward(lca, anchor)`'s subtree (which contains
/// `A`'s), so `lca(anchor, that node)` is a proper descendant of the
/// LCA and the pair is not meaningful. Hence once a ring's ancestor
/// subtree contains the label at all, no farther ring can contribute.
///
/// The per-candidate [`meaningfully_related`] test is still applied, so
/// the result is exactly the set the naive scan produces (asserted by
/// tests and by the `mlca` property tests).
pub fn meaningful_partners_indexed(
    doc: &Document,
    anchor: NodeId,
    label: xmldb::Symbol,
) -> Vec<NodeId> {
    meaningful_partners_indexed_from(doc, anchor, label, &mut PartnerProbe::default())
}

/// Reusable probe state for [`meaningful_partners_indexed_from`]: one
/// postings cursor per probe site (the candidate ring, the blocking
/// probe against the anchor's label, and the blocking probe against the
/// partner label). A sweep that enumerates partners for many anchors in
/// (roughly) document order reuses one `PartnerProbe` so every postings
/// search gallops from where the previous anchor's search ended —
/// amortized O(log distance) instead of a cold O(log n) binary search
/// per probe. State is a pure performance hint; results are identical
/// for any cursor positions. Only meaningful while the anchor label and
/// partner label stay fixed: use one probe per (anchor label, partner
/// label) pair.
#[derive(Debug, Default, Clone, Copy)]
pub struct PartnerProbe {
    ring: SubtreeProbeCursor,
    anchor_label: SubtreeProbeCursor,
    partner_label: SubtreeProbeCursor,
}

/// [`meaningful_partners_indexed`] with caller-held probe state — the
/// form the FLWOR evaluator uses inside `mqf()` join loops, where the
/// anchors arrive in document order and cursor reuse makes the postings
/// probes near-sequential.
pub fn meaningful_partners_indexed_from(
    doc: &Document,
    anchor: NodeId,
    label: xmldb::Symbol,
    probe: &mut PartnerProbe,
) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut prev: Option<NodeId> = None;
    let anchor_pre = doc.pre(anchor);
    let chain = std::iter::once(anchor).chain(doc.ancestors(anchor));
    for anc in chain {
        let ring = doc.labeled_in_subtree_from(label, anc, &mut probe.ring);
        for &cand in ring {
            // Skip the inner subtree already processed.
            if let Some(p) = prev {
                if doc.is_ancestor_or_self(p, cand) {
                    continue;
                }
            }
            if related_pres(doc, anchor_pre, doc.pre(cand), probe) {
                out.push(cand);
            }
        }
        if !ring.is_empty() {
            break; // blocking property: farther rings cannot contribute
        }
        prev = Some(anc);
    }
    out.sort_by_key(|&n| doc.pre(n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb::datasets::movies::{movies, movies_and_books};
    use xmldb::Document;

    #[test]
    fn director_relates_to_own_title_only() {
        let d = movies();
        let titles = d.nodes_labeled("title");
        let dirs = d.nodes_labeled("director");
        // Figure 1 order: pairs (i, i) are same-movie.
        for (i, &dir) in dirs.iter().enumerate() {
            for (j, &t) in titles.iter().enumerate() {
                assert_eq!(
                    meaningfully_related(&d, dir, t),
                    i == j,
                    "director {i} vs title {j}"
                );
            }
        }
    }

    #[test]
    fn ancestor_descendant_pairs_are_meaningful() {
        let d = movies();
        let m = d.nodes_labeled("movie")[0];
        let t = d.nodes_labeled("title")[0];
        assert!(meaningfully_related(&d, m, t));
        assert!(meaningfully_related(&d, t, m));
        let root = d.root();
        assert!(meaningfully_related(&d, root, t));
    }

    #[test]
    fn same_label_distinct_nodes_are_not_meaningful() {
        let d = movies();
        let titles = d.nodes_labeled("title");
        assert!(!meaningfully_related(&d, titles[0], titles[1]));
        assert!(meaningfully_related(&d, titles[0], titles[0]));
    }

    #[test]
    fn movie_relates_to_its_year_group() {
        let d = movies();
        let years = d.nodes_labeled("year");
        let movies_ = d.nodes_labeled("movie");
        // First two movies are under year 2000; last three under 2001.
        assert!(meaningfully_related(&d, movies_[0], years[0]));
        assert!(!meaningfully_related(&d, movies_[0], years[1]));
        assert!(meaningfully_related(&d, movies_[4], years[1]));
    }

    #[test]
    fn gone_with_the_wind_disambiguation() {
        // The motivating example of the paper's Sec. 2: when a title
        // occurs under both movie and book, mqf(director, title) must
        // pick the movie title. Here: a book also titled "Traffic" —
        // the director of Traffic relates to the movie's title node,
        // not the book's.
        let d = movies_and_books();
        let traffic_titles: Vec<_> = d
            .nodes_labeled("title")
            .iter()
            .copied()
            .filter(|&t| d.string_value(t) == "Traffic")
            .collect();
        assert_eq!(traffic_titles.len(), 2);
        let (movie_title, book_title) = {
            let is_movie = |t: NodeId| d.ancestors(t).any(|a| d.label(a) == "movie");
            if is_movie(traffic_titles[0]) {
                (traffic_titles[0], traffic_titles[1])
            } else {
                (traffic_titles[1], traffic_titles[0])
            }
        };
        let soderbergh = d
            .nodes_labeled("director")
            .iter()
            .copied()
            .find(|&n| d.string_value(n) == "Steven Soderbergh")
            .unwrap();
        assert!(meaningfully_related(&d, soderbergh, movie_title));
        assert!(!meaningfully_related(&d, soderbergh, book_title));
    }

    #[test]
    fn book_author_relates_to_book_title() {
        let d = movies_and_books();
        let knuth = d
            .nodes_labeled("author")
            .iter()
            .copied()
            .find(|&n| d.string_value(n) == "Knuth")
            .unwrap();
        let taocp = d
            .nodes_labeled("title")
            .iter()
            .copied()
            .find(|&n| d.string_value(n) == "The Art of Computer Programming")
            .unwrap();
        assert!(meaningfully_related(&d, knuth, taocp));
    }

    #[test]
    fn set_relatedness_requires_all_pairs() {
        let d = movies();
        let t0 = d.nodes_labeled("title")[0];
        let dir0 = d.nodes_labeled("director")[0];
        let dir1 = d.nodes_labeled("director")[1];
        let m0 = d.nodes_labeled("movie")[0];
        assert!(set_meaningfully_related(&d, &[t0, dir0, m0]));
        assert!(!set_meaningfully_related(&d, &[t0, dir1, m0]));
        assert!(set_meaningfully_related(&d, &[t0]));
        assert!(set_meaningfully_related(&d, &[]));
    }

    #[test]
    fn partners_enumerates_exactly_the_related_nodes() {
        let d = movies();
        let dir0 = d.nodes_labeled("director")[0];
        let partners = meaningful_partners(&d, dir0, "title");
        assert_eq!(partners.len(), 1);
        assert_eq!(
            d.string_value(partners[0]),
            "How the Grinch Stole Christmas"
        );
    }

    #[test]
    fn schema_inversion_is_transparent() {
        // The paper: "it does not matter whether the schema has director
        // under movie or vice versa (movies could have been classified
        // based on their directors)". Build the inverted schema and
        // check mqf still pairs the right title with the right director.
        let d = Document::parse_str(
            "<movies>\
               <director><name>Ron Howard</name>\
                 <movie><title>A Beautiful Mind</title></movie>\
                 <movie><title>How the Grinch Stole Christmas</title></movie>\
               </director>\
               <director><name>Peter Jackson</name>\
                 <movie><title>The Lord of the Rings</title></movie>\
               </director>\
             </movies>",
        )
        .unwrap();
        let jackson = d.nodes_labeled("director")[1];
        let titles = d.nodes_labeled("title");
        assert!(!meaningfully_related(&d, jackson, titles[0]));
        assert!(meaningfully_related(&d, jackson, titles[2]));
    }

    #[test]
    fn indexed_partners_equal_naive_scan() {
        let docs = [
            movies(),
            movies_and_books(),
            xmldb::datasets::dblp::generate(&xmldb::datasets::dblp::DblpConfig::small()),
        ];
        for d in &docs {
            let labels: Vec<String> = d.labels().iter().map(|s| (*s).to_owned()).collect();
            // every node as anchor would be slow on the dblp corpus;
            // sample in strides
            let anchors: Vec<_> = (0..d.len()).step_by(17).collect();
            for &ai in &anchors {
                let a = xmldb::NodeId::from_index(ai);
                if d.node(a).is_text() {
                    continue;
                }
                for label in &labels {
                    let Some(sym) = d.lookup(label) else { continue };
                    let fast = meaningful_partners_indexed(d, a, sym);
                    let naive = meaningful_partners(d, a, label);
                    assert_eq!(fast, naive, "anchor {a} ({}), label {label}", d.label(a));
                }
            }
        }
    }

    #[test]
    fn indexed_partners_same_label_is_self() {
        let d = movies();
        let t = d.nodes_labeled("title")[2];
        let sym = d.lookup("title").unwrap();
        assert_eq!(meaningful_partners_indexed(&d, t, sym), vec![t]);
    }

    #[test]
    fn indexed_partners_missing_label_is_empty() {
        let d = movies();
        let dir = d.nodes_labeled("director")[0];
        // "book" never occurs in the movies-only document
        assert!(d.lookup("book").is_none());
        // a label that exists but has no meaningful partner from a
        // sibling subtree
        let sym = d.lookup("director").unwrap();
        let partners = meaningful_partners_indexed(&d, dir, sym);
        assert_eq!(partners, vec![dir]);
    }

    #[test]
    fn deep_nesting_meet_in_the_middle() {
        let d = Document::parse_str(
            "<lib><shelf><box><book><title>T1</title></book></box>\
             <box><book><title>T2</title><isbn>1</isbn></book></box></shelf></lib>",
        )
        .unwrap();
        let isbn = d.nodes_labeled("isbn")[0];
        let titles = d.nodes_labeled("title");
        assert!(!meaningfully_related(&d, isbn, titles[0]));
        assert!(meaningfully_related(&d, isbn, titles[1]));
    }
}
