#![warn(missing_docs)]
// The evaluator sits on the NL→answer hot path: a malformed or
// adversarial query must come back as a structured error, never a
// process abort (paper Sec. 4 — NaLIX always answers with feedback).
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

//! # xquery — a Schema-Free XQuery engine
//!
//! The target language of the NaLIX translation: an XQuery-subset engine
//! extended with the `mqf()` (*meaningful query focus*) predicate of
//! Schema-Free XQuery (Li, Yang & Jagadish, VLDB 2004), evaluated over
//! the [`xmldb`] store.
//!
//! ## Supported language
//!
//! - FLWOR expressions: `for`/`let` (interleaved, multiple bindings),
//!   `where`, `order by … [ascending|descending]`, `return`; arbitrary
//!   nesting (a `let` may bind `{ for … return … }`).
//! - Path expressions: `doc("…")//name`, `$v/name`, `$v//name`, the
//!   wildcard `*`, and **disjunctive name tests** `(a|b)` — the form the
//!   NaLIX term expansion produces when several element names match a
//!   query word.
//! - General comparisons `= != < <= > >=` with numeric coercion,
//!   existential over sequences (XPath 1.0 style).
//! - Logic: `and`, `or`, `not(…)`.
//! - Aggregates: `count sum min max avg`; `distinct-values`.
//! - Quantifiers: `some|every $x in E satisfies E`.
//! - String functions: `contains starts-with ends-with string-length`.
//! - Computed element constructors: `element name { … }`.
//! - **`mqf($a, $b, …)`** — true iff the bound nodes are pairwise
//!   *meaningfully related* under the MLCA semantics (see [`mlca`]).
//!
//! ## Quick start
//!
//! ```
//! use xmldb::datasets::movies::movies;
//! use xquery::Engine;
//!
//! let doc = movies();
//! let engine = Engine::new(doc);
//! let out = engine
//!     .run("for $d in doc()//director, $t in doc()//title \
//!           where mqf($d, $t) and $t = \"Traffic\" return $d")
//!     .unwrap();
//! assert_eq!(out.len(), 1);
//! assert_eq!(engine.item_string(&out[0]), "Steven Soderbergh");
//! ```
//!
//! The `mqf` clause is what makes the query *schema-free*: the director
//! and the title are matched through their structural relationship (same
//! `movie`), with no path from the root spelled out.
//!
//! ## Observability
//!
//! Every [`Engine`] owns an
//! [`obs::MetricsRegistry`] ([`Engine::new`] creates a fresh one;
//! [`Engine::with_metrics`] shares an existing handle). Each evaluation records an `eval` stage
//! span plus work counters — tuples materialized, value-index and mqf
//! activity, recursion high-water mark:
//!
//! ```
//! use xmldb::datasets::movies::movies;
//! use xquery::Engine;
//!
//! let doc = movies();
//! let engine = Engine::new(doc);
//! engine.run("for $t in doc()//title return $t").unwrap();
//! let snap = engine.metrics().snapshot();
//! assert_eq!(snap.stage(obs::Stage::Eval).spans(), 1);
//! assert!(snap.counter(obs::Counter::EvalTuples) > 0);
//! ```

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod mlca;
pub mod parser;
pub mod pretty;
pub mod value;

pub use ast::{
    AggFunc, Binding, CmpOp, Expr, OrderDir, OrderKey, PathRoot, Quantifier, Step, StepAxis,
};
pub use eval::{Engine, EvalBudget, EvalError, ExhaustedResource};
pub use lexer::{LexError, Token};
pub use parser::{parse, ParseError};
pub use value::{Item, Sequence, SortKey};
