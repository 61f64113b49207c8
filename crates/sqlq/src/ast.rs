//! The SQL subset the NaLIX SQL backend emits.
//!
//! One query = `SELECT … FROM node AS a, node AS b, … WHERE … ORDER BY
//! …` over the two relstore tables. The grammar is deliberately small —
//! exactly what the translator's FLWOR plans lower to (see
//! `docs/BACKENDS.md` for the full grammar and the mapping):
//!
//! - every `FROM` item scans the `node` table under a label predicate;
//! - joins are equi-joins on the interval columns (`parent_pre = pre`)
//!   or containment predicates (`pre BETWEEN … AND extent`), plus the
//!   dialect predicate `mqf(a, b, …)`;
//! - scalar access is `strval(a)` — the atomized string value, a
//!   containment join against the `value` table;
//! - aggregates are correlated scalar subqueries;
//! - universal quantification is `NOT EXISTS (…)`.

/// Comparisons and aggregates are the XQuery engine's own operator
/// types, evaluated by its value layer ([`xquery::value`]).
pub use xquery::{AggFunc, CmpOp};

/// String predicates (mapped from the XQuery `contains`/`starts-with`/
/// `ends-with` calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrFn {
    /// Substring containment.
    Contains,
    /// Prefix test.
    StartsWith,
    /// Suffix test.
    EndsWith,
}

impl std::fmt::Display for StrFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StrFn::Contains => "contains",
            StrFn::StartsWith => "starts_with",
            StrFn::EndsWith => "ends_with",
        })
    }
}

/// Axis of a correlated node-set access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAxis {
    /// Direct children (`parent_pre` equi-join).
    Child,
    /// Proper descendants (interval containment).
    Descendant,
}

/// A scalar expression. Scalars are *sequence-valued* (zero or more
/// values), exactly as in the XQuery data model: a bound row yields one
/// value, a [`Scalar::Nodes`] access yields the matching rows' values,
/// an empty aggregate yields none.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// `alias.pre` — the row's document position (used for the
    /// source-order `ORDER BY` keys).
    Pre(String),
    /// `strval(alias)` — the row's atomized string value.
    Val(String),
    /// The labelled children or descendants of the alias's row — a
    /// containment join producing zero or more values, in pre order.
    Nodes {
        /// The anchoring alias.
        alias: String,
        /// Which axis.
        axis: PathAxis,
        /// Accepted labels (disjunctive).
        labels: Vec<String>,
    },
    /// A string literal.
    Str(String),
    /// A numeric literal.
    Num(f64),
    /// A correlated scalar subquery under an aggregate.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// The subquery producing the aggregated column.
        query: Box<SqlQuery>,
    },
}

/// A predicate (`WHERE` conjunct).
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// General comparison, existential over multi-valued scalars.
    Cmp {
        /// Operator (printed `<>` for [`CmpOp::Ne`]).
        op: CmpOp,
        /// Left operand.
        lhs: Scalar,
        /// Right operand.
        rhs: Scalar,
    },
    /// String predicate on the operands' first values.
    StrFn {
        /// Which predicate.
        func: StrFn,
        /// Left operand.
        lhs: Scalar,
        /// Right operand.
        rhs: Scalar,
    },
    /// The dialect predicate `mqf(a, b, …)`: all the aliases' rows are
    /// pairwise meaningfully related (MLCA test over the interval
    /// columns; `docs/BACKENDS.md` gives its relational expansion).
    Mqf(Vec<String>),
    /// Equi-join `child.parent_pre = parent.pre`.
    ChildOf {
        /// Child-side alias.
        child: String,
        /// Parent-side alias.
        parent: String,
    },
    /// Containment join: `inner` lies properly inside `outer`'s subtree
    /// (`outer.pre < inner.pre AND inner.pre <= outer.extent`).
    Within {
        /// The contained alias.
        inner: String,
        /// The containing alias.
        outer: String,
    },
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// `[NOT] EXISTS (subquery)`, correlated against the outer aliases.
    Exists {
        /// The subquery.
        query: Box<SqlQuery>,
        /// True for `NOT EXISTS`.
        negated: bool,
    },
}

/// One `FROM node AS alias` item with its label predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// The alias (unique within the query; subqueries may shadow).
    pub alias: String,
    /// Accepted labels (`label = 'x'` or `label IN (…)`).
    pub labels: Vec<String>,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    /// Key expression (its first value orders the row; rows without a
    /// value sort first).
    pub key: Scalar,
    /// Descending?
    pub desc: bool,
}

/// The `SELECT` list shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// Plain columns: each row emits every item value as its own
    /// output, in item order.
    Columns(Vec<Scalar>),
    /// `concat(…)`: each row emits a single string, the concatenation
    /// of every item value (the relational image of the translator's
    /// `element result { … }` wrapper).
    Concat(Vec<Scalar>),
}

/// A query of the subset.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlQuery {
    /// The `SELECT` list.
    pub projection: Projection,
    /// The `FROM` items, in binding order (= result enumeration order).
    pub from: Vec<FromItem>,
    /// `WHERE` conjuncts.
    pub preds: Vec<Pred>,
    /// `ORDER BY` keys, already including the source-order `pre`
    /// tiebreakers the lowering appends.
    pub order_by: Vec<OrderSpec>,
}

impl SqlQuery {
    /// All aliases bound by this query's own `FROM` clause.
    pub fn local_aliases(&self) -> Vec<&str> {
        self.from.iter().map(|f| f.alias.as_str()).collect()
    }
}
