//! A panic-free, std-only executor for the SQL subset, evaluating over
//! the [`relstore::Shredding`] view of a document.
//!
//! The plan is nested loops in `FROM` order with **conjunct pushdown**:
//! every predicate runs as soon as the aliases it binds locally are all
//! bound (correlated outer aliases are bound by definition), and
//! `mqf(…)` decomposes into its pairwise checks — meaningfulness is
//! monotone, so a failing pair prunes the whole subtree of tuples, the
//! same strategy the XQuery engine's FLWOR evaluator uses, and each pair
//! is the engine's own test ([`xquery::mlca::related_pres`]). Candidate
//! rows come from the per-label postings (pre-sorted, so tuples
//! enumerate in document order without sorting).
//!
//! An `mqf` pair additionally narrows the partner's candidate list to
//! a contiguous postings window before the loop even starts: a
//! meaningful partner must lie inside the subtree of the highest
//! ancestor of the already-bound node whose path-child contains no
//! partner-labeled row (the monotone half of the MLCA test), so the
//! join enumerates only indexed partners instead of the label cross
//! product — the relational mirror of the engine's MLCA partner
//! enumeration.
//!
//! Values are the engine's own: a scalar yields an [`xquery::Item`]
//! sequence (a row is [`Item::Node`], a literal or aggregate result an
//! [`Item::Str`] or [`Item::Num`]), comparisons are
//! [`xquery::value::general_compare`], aggregates
//! [`xquery::value::aggregate`], `ORDER BY` sorts with
//! [`xquery::SortKey`], and output strings atomize with
//! [`Item::atom_value`]. Both backends therefore share one value layer
//! rather than two copies of it.
//!
//! A correlated scalar or `EXISTS` subquery that reads its outer
//! aliases only as `strval(alias)` operands of comparisons — the
//! relational image of the paper's Fig. 6 grouping — runs once per
//! distinct tuple of those atomized strings during one [`execute`]
//! call; repeats are answered from a memo and counted by
//! [`SqlOutput::memo_hits`].

use crate::ast::{FromItem, PathAxis, Pred, Projection, Scalar, SqlQuery, StrFn};
use relstore::Shredding;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use xquery::value::{aggregate, general_compare};
use xquery::{AggFunc, Item, SortKey};

/// Executor failure: a malformed query (unknown alias), a row the
/// document does not hold, a type error (`sum` over non-numeric
/// values), or an exhausted tuple budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// A scalar or predicate referenced an alias no `FROM` item binds.
    UnknownAlias(String),
    /// A bound row's `pre` names no node of the document.
    MissingRow(u32),
    /// An aggregate met a value outside its domain.
    TypeError(String),
    /// The tuple budget ran out before the query finished.
    Budget(u64),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::UnknownAlias(a) => write!(f, "unknown alias `{a}`"),
            SqlError::MissingRow(pre) => write!(f, "no row at pre {pre}"),
            SqlError::TypeError(m) => write!(f, "type error: {m}"),
            SqlError::Budget(n) => write!(f, "tuple budget of {n} exhausted"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Resource limits of one execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecLimits {
    /// Abort with [`SqlError::Budget`] after this many enumerated
    /// binding tuples (`None` = unlimited).
    pub max_tuples: Option<u64>,
}

/// One result row: the values of each `SELECT` item (sequence-valued).
type RowValues = Vec<Vec<Item>>;

/// The result set of a query.
#[derive(Debug, Clone)]
pub struct SqlOutput {
    projection_concat: bool,
    rows: Vec<RowValues>,
    tuples: u64,
    memo_hits: u64,
}

impl SqlOutput {
    /// Number of result rows (binding tuples that survived the
    /// predicates).
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Total binding tuples enumerated to answer the query, subqueries
    /// included (the quantity [`ExecLimits::max_tuples`] bounds).
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Correlated subquery runs answered from the memo instead of
    /// being enumerated again.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Flatten to the answer strings, matching the XQuery engine's
    /// `strings()` over the equivalent FLWOR: a `Columns` projection
    /// emits every item value separately; a `Concat` projection emits
    /// one concatenated string per row.
    pub fn strings(&self, shred: &Shredding<'_>) -> Vec<String> {
        let doc = shred.doc();
        let mut out = Vec::new();
        for row in &self.rows {
            if self.projection_concat {
                let mut s = String::new();
                for vals in row {
                    for v in vals {
                        s.push_str(&v.atom_value(doc));
                    }
                }
                out.push(s);
            } else {
                for vals in row {
                    for v in vals {
                        out.push(v.string_value(doc));
                    }
                }
            }
        }
        out
    }
}

/// Execute `q` against `shred`.
pub fn execute(
    shred: &Shredding<'_>,
    q: &SqlQuery,
    limits: &ExecLimits,
) -> Result<SqlOutput, SqlError> {
    let exec = Exec {
        shred,
        limits: *limits,
        tuples: Cell::new(0),
        agg_memo: RefCell::default(),
        exists_memo: RefCell::default(),
        memo_hits: Cell::new(0),
    };
    let mut env = Env::default();
    let rows = exec.enumerate(q, &mut env)?;
    let mut keyed: Vec<(Vec<SortKey>, Vec<u32>)> = Vec::with_capacity(rows.len());
    for tuple in rows {
        let mut env = Env::default();
        env.push_tuple(q, &tuple);
        let mut keys = Vec::with_capacity(q.order_by.len());
        for k in &q.order_by {
            keys.push(SortKey::first(shred.doc(), &exec.scalar(&k.key, &env)?));
        }
        keyed.push((keys, tuple));
    }
    if !q.order_by.is_empty() {
        // The engine's total order, so `sort_by` cannot panic and both
        // backends agree on mixed columns.
        keyed.sort_by(|(ka, _), (kb, _)| {
            for ((a, b), spec) in ka.iter().zip(kb).zip(&q.order_by) {
                let o = a.total_cmp(b);
                let o = if spec.desc { o.reverse() } else { o };
                if o != Ordering::Equal {
                    return o;
                }
            }
            Ordering::Equal
        });
    }
    let mut rows_out = Vec::with_capacity(keyed.len());
    let items = match &q.projection {
        Projection::Columns(items) | Projection::Concat(items) => items,
    };
    for (_, tuple) in keyed {
        let mut env = Env::default();
        env.push_tuple(q, &tuple);
        let mut row = Vec::with_capacity(items.len());
        for item in items {
            row.push(exec.scalar(item, &env)?);
        }
        rows_out.push(row);
    }
    Ok(SqlOutput {
        projection_concat: matches!(q.projection, Projection::Concat(_)),
        rows: rows_out,
        tuples: exec.tuples.get(),
        memo_hits: exec.memo_hits.get(),
    })
}

/// Alias bindings, innermost last (subquery aliases shadow outer ones).
#[derive(Debug, Default, Clone)]
struct Env {
    bound: Vec<(String, u32)>,
}

impl Env {
    fn get(&self, alias: &str) -> Option<u32> {
        self.bound
            .iter()
            .rev()
            .find(|(a, _)| a == alias)
            .map(|&(_, pre)| pre)
    }

    fn push_tuple(&mut self, q: &SqlQuery, tuple: &[u32]) {
        for (f, &pre) in q.from.iter().zip(tuple) {
            self.bound.push((f.alias.clone(), pre));
        }
    }

    fn truncate(&mut self, len: usize) {
        self.bound.truncate(len);
    }
}

/// A predicate check scheduled at the binding depth where it first
/// becomes evaluable.
enum Check<'q> {
    Pred(&'q Pred),
    MqfPair(&'q str, &'q str),
}

/// A memo entry's key: the subquery (by address — the query tree is
/// borrowed for the whole [`execute`] call) and the atomized strings of
/// its outer aliases' rows.
type MemoKey = (*const SqlQuery, Vec<String>);

struct Exec<'s> {
    shred: &'s Shredding<'s>,
    limits: ExecLimits,
    tuples: Cell<u64>,
    /// Results of memoisable scalar subqueries, for this execution.
    agg_memo: RefCell<HashMap<MemoKey, Vec<Item>>>,
    /// Emptiness of memoisable `EXISTS` subqueries, for this execution.
    exists_memo: RefCell<HashMap<MemoKey, bool>>,
    memo_hits: Cell<u64>,
}

impl<'s> Exec<'s> {
    fn charge(&self) -> Result<(), SqlError> {
        let n = self.tuples.get() + 1;
        self.tuples.set(n);
        match self.limits.max_tuples {
            Some(cap) if n > cap => Err(SqlError::Budget(cap)),
            _ => Ok(()),
        }
    }

    /// Run a correlated subquery through `memo`: when `query` reads its
    /// outer aliases only as comparison operands, its result depends on
    /// nothing but their rows' atomized strings, so a repeated key
    /// reuses the first result.
    fn memoised<T: Clone>(
        &self,
        query: &SqlQuery,
        env: &Env,
        memo: &RefCell<HashMap<MemoKey, T>>,
        run: impl FnOnce() -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        let key = value_keyed_aliases(query).and_then(|aliases| {
            aliases
                .iter()
                .map(|a| env.get(a).map(|pre| self.shred.atomize(pre).into_owned()))
                .collect::<Option<Vec<String>>>()
        });
        let Some(key) = key else {
            return run();
        };
        let key = (std::ptr::from_ref(query), key);
        if let Some(hit) = memo.borrow().get(&key) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return Ok(hit.clone());
        }
        let out = run()?;
        memo.borrow_mut().insert(key, out.clone());
        Ok(out)
    }

    /// Enumerate the binding tuples of `q` (pres per `FROM` item, in
    /// document order), applying each predicate at the earliest depth
    /// where its locally bound aliases are complete.
    fn enumerate(&self, q: &SqlQuery, env: &mut Env) -> Result<Vec<Vec<u32>>, SqlError> {
        // Depth of each local alias.
        let depth_of =
            |alias: &str| -> Option<usize> { q.from.iter().position(|f| f.alias == alias) };
        // Schedule: checks[d] runs right after from[d] binds.
        let mut checks: Vec<Vec<Check<'_>>> = (0..q.from.len()).map(|_| Vec::new()).collect();
        let mut always: Vec<&Pred> = Vec::new(); // no local aliases at all
        for p in &q.preds {
            if let Pred::Mqf(aliases) = p {
                // Pairwise decomposition: each pair runs as soon as its
                // later member binds (outer-bound members at depth 0).
                let mut pairwise = false;
                for (i, a) in aliases.iter().enumerate() {
                    for b in aliases.iter().skip(i + 1) {
                        let d = depth_of(a).unwrap_or(0).max(depth_of(b).unwrap_or(0));
                        if let Some(slot) = checks.get_mut(d) {
                            slot.push(Check::MqfPair(a, b));
                            pairwise = true;
                        }
                    }
                }
                if pairwise || aliases.len() < 2 {
                    continue;
                }
            }
            let locals = pred_local_aliases(p, &|a| depth_of(a).is_some());
            let depth = locals.iter().filter_map(|a| depth_of(a)).max();
            match depth {
                Some(d) => {
                    if let Some(slot) = checks.get_mut(d) {
                        slot.push(Check::Pred(p));
                    }
                }
                None => always.push(p),
            }
        }

        // Candidate rows per FROM item: merged postings of its labels.
        let mut candidates: Vec<Vec<u32>> = Vec::with_capacity(q.from.len());
        for f in &q.from {
            candidates.push(self.candidates(f));
        }

        let base = env.bound.len();
        let mut out: Vec<Vec<u32>> = Vec::new();
        // Uncorrelated constant predicates gate the whole enumeration.
        for p in &always {
            if !self.pred(p, env)? {
                env.truncate(base);
                return Ok(out);
            }
        }
        // `stack[d]` is the next candidate index at depth `d`; `ends[d]`
        // is where that depth's mqf partner window closes (computed on
        // entry from the bindings above it).
        let (s0, e0) = self.mqf_bounds(q, 0, &checks, &candidates, env);
        let mut stack: Vec<usize> = vec![s0];
        let mut ends: Vec<usize> = vec![e0];
        'outer: while let Some(&idx) = stack.last() {
            let d = stack.len() - 1;
            let Some(cands) = candidates.get(d) else {
                break;
            };
            if idx >= *ends.last().unwrap_or(&0) {
                stack.pop();
                ends.pop();
                env.truncate(base + d);
                if let Some(last) = stack.last_mut() {
                    *last += 1;
                }
                continue;
            }
            let pre = cands[idx];
            self.charge()?;
            env.truncate(base + d);
            env.bound.push((q.from[d].alias.clone(), pre));
            // Run this depth's checks.
            for c in checks.get(d).map(Vec::as_slice).unwrap_or(&[]) {
                let ok = match c {
                    Check::Pred(p) => self.pred(p, env)?,
                    Check::MqfPair(a, b) => {
                        self.related(self.resolve(a, env)?, self.resolve(b, env)?)
                    }
                };
                if !ok {
                    if let Some(last) = stack.last_mut() {
                        *last += 1;
                    }
                    continue 'outer;
                }
            }
            if d + 1 == q.from.len() {
                out.push(env.bound[base..].iter().map(|&(_, pre)| pre).collect());
                if let Some(last) = stack.last_mut() {
                    *last += 1;
                }
            } else {
                let (s, e) = self.mqf_bounds(q, d + 1, &checks, &candidates, env);
                stack.push(s);
                ends.push(e);
            }
        }
        env.truncate(base);
        Ok(out)
    }

    /// The candidate-index window `[start, end)` at `depth`, narrowed
    /// by the mqf pairs scheduled there whose other member is already
    /// bound in `env`. A meaningful partner of a bound row must lie in
    /// the subtree of the highest ancestor whose path-child toward the
    /// bound row contains no row with the candidates' label — above
    /// that, `meaningfully_related` fails the path-child count for
    /// every candidate, and it only fails harder further up
    /// (monotonicity). Rows outside the window therefore cannot pass
    /// the pair check that still runs per binding; the window is pure
    /// pruning, never the decision.
    fn mqf_bounds(
        &self,
        q: &SqlQuery,
        depth: usize,
        checks: &[Vec<Check<'_>>],
        candidates: &[Vec<u32>],
        env: &Env,
    ) -> (usize, usize) {
        let full = (0, candidates.get(depth).map_or(0, Vec::len));
        let Some(me) = q.from.get(depth) else {
            return full;
        };
        // Only a single-label item gives the walk one well-defined
        // label to count; multi-label items keep the full list.
        let [label] = me.labels.as_slice() else {
            return full;
        };
        let Some(my_label) = self.shred.lookup_label(label) else {
            return full;
        };
        let mut window: Option<(u32, u32)> = None;
        for c in checks.get(depth).map(Vec::as_slice).unwrap_or(&[]) {
            let Check::MqfPair(a, b) = c else { continue };
            let other: &str = match (*a == me.alias, *b == me.alias) {
                (true, false) => b,
                (false, true) => a,
                _ => continue,
            };
            let Some(bound) = env.get(other) else {
                continue;
            };
            // Walk up from the bound row while the path-child stays
            // free of candidate-labeled rows.
            let mut anc = bound;
            loop {
                let p = self.shred.parent_pre(anc);
                if p == relstore::NIL_PRE || self.shred.count_label_in_subtree(my_label, anc) > 0 {
                    break;
                }
                anc = p;
            }
            let (lo, hi) = (anc, self.shred.extent(anc));
            window = Some(match window {
                None => (lo, hi),
                Some((l, h)) => (l.max(lo), h.min(hi)),
            });
        }
        let Some((lo, hi)) = window else {
            return full;
        };
        let cands = candidates.get(depth).map(Vec::as_slice).unwrap_or(&[]);
        (
            cands.partition_point(|&x| x < lo),
            cands.partition_point(|&x| x <= hi),
        )
    }

    /// The MLCA test of one `mqf` pair of rows.
    fn related(&self, a: u32, b: u32) -> bool {
        let probe = &mut xquery::mlca::PartnerProbe::default();
        xquery::mlca::related_pres(self.shred.doc(), a, b, probe)
    }

    fn candidates(&self, f: &FromItem) -> Vec<u32> {
        let mut lists: Vec<&[u32]> = Vec::with_capacity(f.labels.len());
        for l in &f.labels {
            if let Some(id) = self.shred.lookup_label(l) {
                lists.push(self.shred.postings(id));
            }
        }
        match lists.len() {
            0 => Vec::new(),
            1 => lists[0].to_vec(),
            _ => {
                let mut merged: Vec<u32> = lists.concat();
                merged.sort_unstable();
                merged
            }
        }
    }

    fn resolve(&self, alias: &str, env: &Env) -> Result<u32, SqlError> {
        env.get(alias)
            .ok_or_else(|| SqlError::UnknownAlias(alias.to_owned()))
    }

    /// The row at `pre` as the engine's node item.
    fn node(&self, pre: u32) -> Result<Item, SqlError> {
        self.shred
            .doc()
            .node_at_pre(pre)
            .map(Item::Node)
            .ok_or(SqlError::MissingRow(pre))
    }

    fn scalar(&self, s: &Scalar, env: &Env) -> Result<Vec<Item>, SqlError> {
        match s {
            Scalar::Pre(a) => Ok(vec![Item::Num(f64::from(self.resolve(a, env)?))]),
            Scalar::Val(a) => Ok(vec![self.node(self.resolve(a, env)?)?]),
            Scalar::Nodes {
                alias,
                axis,
                labels,
            } => {
                let anchor = self.resolve(alias, env)?;
                let hi = self.shred.extent(anchor);
                let mut pres: Vec<u32> = Vec::new();
                for l in labels {
                    if let Some(id) = self.shred.lookup_label(l) {
                        let p = self.shred.postings(id);
                        let start = p.partition_point(|&x| x <= anchor);
                        let end = p.partition_point(|&x| x <= hi);
                        for &pre in p.get(start..end).unwrap_or(&[]) {
                            match axis {
                                PathAxis::Descendant => pres.push(pre),
                                PathAxis::Child => {
                                    if self.shred.parent_pre(pre) == anchor {
                                        pres.push(pre);
                                    }
                                }
                            }
                        }
                    }
                }
                pres.sort_unstable();
                pres.into_iter().map(|pre| self.node(pre)).collect()
            }
            Scalar::Str(v) => Ok(vec![Item::Str(v.clone())]),
            Scalar::Num(n) => Ok(vec![Item::Num(*n)]),
            Scalar::Agg { func, query } => self.memoised(query, env, &self.agg_memo, || {
                self.aggregate(*func, query, env)
            }),
        }
    }

    fn aggregate(&self, func: AggFunc, query: &SqlQuery, env: &Env) -> Result<Vec<Item>, SqlError> {
        let mut env = env.clone();
        let tuples = self.enumerate(query, &mut env)?;
        // Collect the aggregated column in tuple order (matters for
        // min/max tie-breaking, which keeps the first best item).
        let items = match &query.projection {
            Projection::Columns(items) | Projection::Concat(items) => items,
        };
        let mut vals: Vec<Item> = Vec::new();
        let base = env.bound.len();
        // Tuple order must match the subquery's ORDER BY (the lowering
        // appends pre tiebreakers); enumerate() yields document order
        // already, which is exactly that.
        for tuple in &tuples {
            env.truncate(base);
            env.push_tuple(query, tuple);
            for item in items {
                vals.extend(self.scalar(item, &env)?);
            }
        }
        aggregate(self.shred.doc(), func, &vals).map_err(SqlError::TypeError)
    }

    fn pred(&self, p: &Pred, env: &Env) -> Result<bool, SqlError> {
        match p {
            Pred::Cmp { op, lhs, rhs } => {
                let l = self.scalar(lhs, env)?;
                let r = self.scalar(rhs, env)?;
                Ok(general_compare(self.shred.doc(), *op, &l, &r))
            }
            Pred::StrFn { func, lhs, rhs } => {
                let first = |s: &Scalar| -> Result<String, SqlError> {
                    Ok(self
                        .scalar(s, env)?
                        .first()
                        .map(|v| v.string_value(self.shred.doc()))
                        .unwrap_or_default())
                };
                let a = first(lhs)?;
                let b = first(rhs)?;
                Ok(match func {
                    StrFn::Contains => a.contains(&b),
                    StrFn::StartsWith => a.starts_with(&b),
                    StrFn::EndsWith => a.ends_with(&b),
                })
            }
            Pred::Mqf(aliases) => {
                let mut rows = Vec::with_capacity(aliases.len());
                for a in aliases {
                    rows.push(self.resolve(a, env)?);
                }
                Ok(rows.iter().enumerate().all(|(i, &a)| {
                    rows.get(i + 1..)
                        .unwrap_or(&[])
                        .iter()
                        .all(|&b| self.related(a, b))
                }))
            }
            Pred::ChildOf { child, parent } => {
                let (c, p) = (self.resolve(child, env)?, self.resolve(parent, env)?);
                Ok(self.shred.parent_pre(c) == p)
            }
            Pred::Within { inner, outer } => {
                let (i, o) = (self.resolve(inner, env)?, self.resolve(outer, env)?);
                Ok(o < i && self.shred.contains_or_self(o, i))
            }
            Pred::And(parts) => {
                for part in parts {
                    if !self.pred(part, env)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Pred::Or(parts) => {
                for part in parts {
                    if self.pred(part, env)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Pred::Not(inner) => Ok(!self.pred(inner, env)?),
            Pred::Exists { query, negated } => {
                let empty = self.memoised(query, env, &self.exists_memo, || {
                    let mut env = env.clone();
                    Ok(self.enumerate(query, &mut env)?.is_empty())
                })?;
                Ok(empty == *negated)
            }
        }
    }
}

/// The aliases a predicate references that the current query's own
/// `FROM` clause binds (`is_local` decides membership). Correlated
/// references to outer aliases are excluded — they are always bound.
fn pred_local_aliases<'p>(p: &'p Pred, is_local: &dyn Fn(&str) -> bool) -> Vec<&'p str> {
    let mut out = Vec::new();
    collect_pred_aliases(p, &mut out);
    out.retain(|a| is_local(a));
    out.dedup();
    out
}

fn collect_pred_aliases<'p>(p: &'p Pred, out: &mut Vec<&'p str>) {
    match p {
        Pred::Cmp { lhs, rhs, .. } | Pred::StrFn { lhs, rhs, .. } => {
            collect_scalar_aliases(lhs, out);
            collect_scalar_aliases(rhs, out);
        }
        Pred::Mqf(aliases) => out.extend(aliases.iter().map(String::as_str)),
        Pred::ChildOf { child, parent } => {
            out.push(child);
            out.push(parent);
        }
        Pred::Within { inner, outer } => {
            out.push(inner);
            out.push(outer);
        }
        Pred::And(parts) | Pred::Or(parts) => {
            for part in parts {
                collect_pred_aliases(part, out);
            }
        }
        Pred::Not(inner) => collect_pred_aliases(inner, out),
        Pred::Exists { query, .. } => collect_query_outer_aliases(query, out),
    }
}

fn collect_scalar_aliases<'p>(s: &'p Scalar, out: &mut Vec<&'p str>) {
    match s {
        Scalar::Pre(a) | Scalar::Val(a) => out.push(a),
        Scalar::Nodes { alias, .. } => out.push(alias),
        Scalar::Str(_) | Scalar::Num(_) => {}
        Scalar::Agg { query, .. } => collect_query_outer_aliases(query, out),
    }
}

/// Aliases a subquery references but does not bind itself — its
/// correlation points into the enclosing query.
fn collect_query_outer_aliases<'p>(q: &'p SqlQuery, out: &mut Vec<&'p str>) {
    let mut inner: Vec<&str> = Vec::new();
    match &q.projection {
        Projection::Columns(items) | Projection::Concat(items) => {
            for i in items {
                collect_scalar_aliases(i, &mut inner);
            }
        }
    }
    for p in &q.preds {
        collect_pred_aliases(p, &mut inner);
    }
    for k in &q.order_by {
        collect_scalar_aliases(&k.key, &mut inner);
    }
    let local: Vec<&str> = q.local_aliases();
    out.extend(inner.into_iter().filter(|a| !local.contains(a)));
}

/// The outer aliases of a correlated subquery, sorted, when the subquery
/// reads each of them only as a `strval(alias)` operand of a comparison
/// (`strval(v4) = strval(v1)`, the Fig. 6 value join). Its result is
/// then a function of those rows' atomized strings. `None` when an
/// outer alias is used structurally (`mqf`, containment, a node set) or
/// as a string-function argument; an empty list for an uncorrelated
/// subquery.
fn value_keyed_aliases(q: &SqlQuery) -> Option<Vec<&str>> {
    let mut outer = Vec::new();
    collect_query_outer_aliases(q, &mut outer);
    outer.sort_unstable();
    outer.dedup();
    query_only_compares(q, &outer).then_some(outer)
}

/// Does `q` read the `outer` aliases (less those it binds itself) only
/// as comparison operands?
fn query_only_compares(q: &SqlQuery, outer: &[&str]) -> bool {
    let local = q.local_aliases();
    let outer: Vec<&str> = outer
        .iter()
        .copied()
        .filter(|a| !local.contains(a))
        .collect();
    let items = match &q.projection {
        Projection::Columns(items) | Projection::Concat(items) => items,
    };
    items.iter().all(|s| scalar_only_compares(s, &outer))
        && q.preds.iter().all(|p| pred_only_compares(p, &outer))
        && q.order_by
            .iter()
            .all(|k| scalar_only_compares(&k.key, &outer))
}

fn pred_only_compares(p: &Pred, outer: &[&str]) -> bool {
    let inner = |a: &String| !outer.contains(&a.as_str());
    match p {
        Pred::Cmp { lhs, rhs, .. } => [lhs, rhs]
            .into_iter()
            .all(|s| matches!(s, Scalar::Val(_)) || scalar_only_compares(s, outer)),
        Pred::StrFn { lhs, rhs, .. } => {
            scalar_only_compares(lhs, outer) && scalar_only_compares(rhs, outer)
        }
        Pred::Mqf(aliases) => aliases.iter().all(inner),
        Pred::ChildOf { child, parent } => inner(child) && inner(parent),
        Pred::Within { inner: i, outer: o } => inner(i) && inner(o),
        Pred::And(parts) | Pred::Or(parts) => parts.iter().all(|p| pred_only_compares(p, outer)),
        Pred::Not(p) => pred_only_compares(p, outer),
        Pred::Exists { query, .. } => query_only_compares(query, outer),
    }
}

fn scalar_only_compares(s: &Scalar, outer: &[&str]) -> bool {
    match s {
        Scalar::Pre(a) | Scalar::Val(a) | Scalar::Nodes { alias: a, .. } => {
            !outer.contains(&a.as_str())
        }
        Scalar::Str(_) | Scalar::Num(_) => true,
        Scalar::Agg { query, .. } => query_only_compares(query, outer),
    }
}
