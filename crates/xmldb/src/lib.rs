#![warn(missing_docs)]
// Query-path crate: loading and navigating documents must surface
// malformed input as `XmlError`/`Option`, never a process abort. The
// few remaining `assert!`s are documented API contracts on impossible
// states, not data-dependent paths.
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

//! # xmldb — an in-memory native XML database
//!
//! This crate is the [Timber](https://dl.acm.org/doi/10.1007/s00778-002-0081-x)
//! substrate of the NaLIX reproduction: a compact, indexed, in-memory XML
//! store over which the Schema-Free XQuery engine (crate `xquery`) and the
//! keyword-search baseline (crate `keyword`) evaluate queries.
//!
//! ## Data model
//!
//! A [`Document`] stores its nodes in a **columnar (struct-of-arrays)
//! arena**: every per-node field — label, kind, the five navigation
//! links, the ranks, and the text offset into one shared string heap —
//! lives in its own contiguous array (the crate-private `arena`
//! module). Each node is an
//! *element*, an *attribute* or a *text* node and carries an interned
//! label ([`Symbol`]). [`Document::node`] assembles the cheap `Copy`
//! view [`Node`] from the columns; hot loops use the single-column
//! accessors ([`Document::pre`], [`Document::kind`], …) instead. After
//! [`Document::finalize`] every node additionally carries its **pre-order**
//! and **post-order** rank and its depth, and the document holds two
//! pre-keyed columns — each node's parent and the end of its subtree
//! ([`Document::parent_pres`], [`Document::extents`]). Ranks make
//! ancestor tests O(1); one climb over the two columns
//! ([`axes::lca_pre`], [`axes::child_toward_pre`]) finds a lowest common
//! ancestor (LCA) and its path children in O(depth) — the primitives the
//! `mqf()` (meaningful query focus) implementation is built on.
//!
//! ## Quick start
//!
//! ```
//! use xmldb::Document;
//!
//! let doc = Document::parse_str(
//!     "<movies><movie><title>Traffic</title>\
//!      <director>Steven Soderbergh</director></movie></movies>").unwrap();
//! let titles = doc.nodes_labeled("title");
//! assert_eq!(doc.string_value(titles[0]), "Traffic");
//! ```
//!
//! ## Modules
//!
//! - [`interner`] — string interning for element/attribute names.
//! - [`node`] — node storage and identifiers.
//! - [`document`] — the document arena, builder API, and label index.
//! - [`xml`] — XML text parsing and serialisation.
//! - [`axes`] — navigation (ancestors, descendants, children), subtree
//!   containment, and the pre-rank climb behind LCA and MLCA.
//! - [`datasets`] — the evaluation datasets: the movies database of the
//!   paper's Figure 1, a seeded DBLP-shaped generator, and the W3C XMP
//!   `bib.xml` sample.
//!
//! ## Observability
//!
//! The [`axes`] primitives count their work (`lca_queries`,
//! `child_toward_queries`, `subtree_probes`) in the process-wide
//! [`obs::global`] registry; `subtree_probes` includes the postings
//! probes behind `mqf()` evaluation upstairs. See
//! `docs/OBSERVABILITY.md` in the repository root for the catalog.

pub(crate) mod arena;
pub mod axes;
pub mod datasets;
pub mod document;
pub mod interner;
pub mod node;
pub mod update;
pub mod xml;

pub use axes::SubtreeProbeCursor;
pub use document::{DocStats, Document, DocumentBuilder, MemoryFootprint};
pub use interner::{Interner, Symbol};
pub use node::{Node, NodeId, NodeIdOverflow, NodeKind};
pub use update::{CommitStrategy, Edit, NewNode, PendingUpdate, UpdateError, UpdateStats, ValueOp};
pub use xml::XmlError;
