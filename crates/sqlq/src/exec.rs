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
//! Value semantics mirror the XQuery engine item for item: scalars are
//! sequence-valued, comparisons are existential and numeric when both
//! sides parse as numbers, aggregates reproduce `count`/`sum`/`avg`/
//! `min`/`max` including empty-input and type-error behaviour, and
//! output strings atomize exactly as the engine's `strings()` does.

use crate::ast::{FromItem, PathAxis, Pred, Projection, Scalar, SqlAgg, SqlCmp, SqlQuery, StrFn};
use relstore::Shredding;
use std::borrow::Cow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;

/// Executor failure: a malformed query (unknown alias), a type error
/// (`sum` over non-numeric values), or an exhausted tuple budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// A scalar or predicate referenced an alias no `FROM` item binds.
    UnknownAlias(String),
    /// An aggregate met a value outside its domain.
    TypeError(String),
    /// The tuple budget ran out before the query finished.
    Budget(u64),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::UnknownAlias(a) => write!(f, "unknown alias `{a}`"),
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

/// A single value (the executor's item type).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlVal {
    /// A row of the `node` table, by pre.
    Node(u32),
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
}

impl SqlVal {
    /// The value's string form (nodes atomize through the view).
    pub fn render<'a>(&'a self, shred: &Shredding<'a>) -> Cow<'a, str> {
        match self {
            SqlVal::Node(pre) => shred.atomize(*pre),
            SqlVal::Str(s) => Cow::Borrowed(s),
            SqlVal::Num(n) => Cow::Owned(crate::pretty::format_number(*n)),
        }
    }

    fn numeric(&self, shred: &Shredding<'_>) -> Option<f64> {
        match self {
            SqlVal::Num(n) => Some(*n),
            SqlVal::Str(s) => s.trim().parse().ok(),
            SqlVal::Node(pre) => shred.atomize(*pre).trim().parse().ok(),
        }
    }
}

/// Compare two values with the engine's `compare_items` semantics:
/// numeric when both sides are numeric, lexicographic otherwise.
pub fn compare_vals(shred: &Shredding<'_>, a: &SqlVal, b: &SqlVal) -> Ordering {
    let sa = a.render(shred);
    let sb = b.render(shred);
    let num = |v: &SqlVal, s: &str| -> Option<f64> {
        match v {
            SqlVal::Num(n) => Some(*n),
            _ => s.trim().parse().ok(),
        }
    };
    match (num(a, &sa), num(b, &sb)) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => sa.cmp(&sb),
    }
}

/// One result row: the values of each `SELECT` item (sequence-valued).
type RowValues = Vec<Vec<SqlVal>>;

/// The result set of a query.
#[derive(Debug, Clone)]
pub struct SqlOutput {
    projection_concat: bool,
    rows: Vec<RowValues>,
    tuples: u64,
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

    /// Flatten to the answer strings, matching the XQuery engine's
    /// `strings()` over the equivalent FLWOR: a `Columns` projection
    /// emits every item value separately; a `Concat` projection emits
    /// one concatenated string per row.
    pub fn strings(&self, shred: &Shredding<'_>) -> Vec<String> {
        let mut out = Vec::new();
        for row in &self.rows {
            if self.projection_concat {
                let mut s = String::new();
                for vals in row {
                    for v in vals {
                        s.push_str(&v.render(shred));
                    }
                }
                out.push(s);
            } else {
                for vals in row {
                    for v in vals {
                        out.push(v.render(shred).into_owned());
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
    };
    let mut env = Env::default();
    let rows = exec.enumerate(q, &mut env)?;
    let mut keyed: Vec<(Vec<Vec<SqlVal>>, Vec<u32>)> = Vec::with_capacity(rows.len());
    for tuple in rows {
        let mut env = Env::default();
        env.push_tuple(q, &tuple);
        let mut keys = Vec::with_capacity(q.order_by.len());
        for k in &q.order_by {
            keys.push(exec.scalar(&k.key, &env)?);
        }
        keyed.push((keys, tuple));
    }
    if !q.order_by.is_empty() {
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, spec) in q.order_by.iter().enumerate() {
                let (a, b) = (ka.get(i), kb.get(i));
                let o = exec.compare_key(
                    a.map(Vec::as_slice).unwrap_or(&[]),
                    b.map(Vec::as_slice).unwrap_or(&[]),
                );
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

struct Exec<'s> {
    shred: &'s Shredding<'s>,
    limits: ExecLimits,
    tuples: Cell<u64>,
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

    fn compare_key(&self, a: &[SqlVal], b: &[SqlVal]) -> Ordering {
        match (a.first(), b.first()) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(x), Some(y)) => compare_vals(self.shred, x, y),
        }
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

    fn scalar(&self, s: &Scalar, env: &Env) -> Result<Vec<SqlVal>, SqlError> {
        match s {
            Scalar::Pre(a) => Ok(vec![SqlVal::Num(f64::from(self.resolve(a, env)?))]),
            Scalar::Val(a) => Ok(vec![SqlVal::Node(self.resolve(a, env)?)]),
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
                Ok(pres.into_iter().map(SqlVal::Node).collect())
            }
            Scalar::Str(v) => Ok(vec![SqlVal::Str(v.clone())]),
            Scalar::Num(n) => Ok(vec![SqlVal::Num(*n)]),
            Scalar::Agg { func, query } => self.aggregate(*func, query, env),
        }
    }

    fn aggregate(
        &self,
        func: SqlAgg,
        query: &SqlQuery,
        env: &Env,
    ) -> Result<Vec<SqlVal>, SqlError> {
        let mut env = env.clone();
        let tuples = self.enumerate(query, &mut env)?;
        // Collect the aggregated column in tuple order (matters for
        // min/max tie-breaking, which keeps the first best item).
        let items = match &query.projection {
            Projection::Columns(items) | Projection::Concat(items) => items,
        };
        let mut vals: Vec<SqlVal> = Vec::new();
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
        env.truncate(base);
        match func {
            SqlAgg::Count => Ok(vec![SqlVal::Num(vals.len() as f64)]),
            SqlAgg::Sum => {
                let mut total = 0.0;
                for v in &vals {
                    total += v.numeric(self.shred).ok_or_else(|| {
                        SqlError::TypeError(format!(
                            "sum() over non-numeric value `{}`",
                            v.render(self.shred)
                        ))
                    })?;
                }
                Ok(vec![SqlVal::Num(total)])
            }
            SqlAgg::Avg => {
                if vals.is_empty() {
                    return Ok(vec![]);
                }
                let mut total = 0.0;
                for v in &vals {
                    total += v.numeric(self.shred).ok_or_else(|| {
                        SqlError::TypeError(format!(
                            "avg() over non-numeric value `{}`",
                            v.render(self.shred)
                        ))
                    })?;
                }
                Ok(vec![SqlVal::Num(total / vals.len() as f64)])
            }
            SqlAgg::Min | SqlAgg::Max => {
                let want = if matches!(func, SqlAgg::Min) {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                let mut iter = vals.into_iter();
                let Some(mut best) = iter.next() else {
                    return Ok(vec![]);
                };
                for v in iter {
                    if compare_vals(self.shred, &v, &best) == want {
                        best = v;
                    }
                }
                Ok(vec![best])
            }
        }
    }

    fn pred(&self, p: &Pred, env: &Env) -> Result<bool, SqlError> {
        match p {
            Pred::Cmp { op, lhs, rhs } => {
                let l = self.scalar(lhs, env)?;
                let r = self.scalar(rhs, env)?;
                for a in &l {
                    for b in &r {
                        let ord = compare_vals(self.shred, a, b);
                        let ok = match op {
                            SqlCmp::Eq => ord == Ordering::Equal,
                            SqlCmp::Ne => ord != Ordering::Equal,
                            SqlCmp::Lt => ord == Ordering::Less,
                            SqlCmp::Le => ord != Ordering::Greater,
                            SqlCmp::Gt => ord == Ordering::Greater,
                            SqlCmp::Ge => ord != Ordering::Less,
                        };
                        if ok {
                            return Ok(true);
                        }
                    }
                }
                Ok(false)
            }
            Pred::StrFn { func, lhs, rhs } => {
                let first = |s: &Scalar| -> Result<String, SqlError> {
                    Ok(self
                        .scalar(s, env)?
                        .first()
                        .map(|v| v.render(self.shred).into_owned())
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
                let mut env = env.clone();
                let rows = self.enumerate(query, &mut env)?;
                Ok(rows.is_empty() == *negated)
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
