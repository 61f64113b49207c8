//! Render a [`SqlQuery`] as SQL text (the form served by `/query` and
//! snapshotted by the golden tests).

use crate::ast::{AggFunc, CmpOp, FromItem, Pred, Projection, Scalar, SqlQuery};
use std::fmt::Write;
use xquery::value::format_number;

/// Pretty-print a query, multi-line, two-space indent per subquery
/// level.
pub fn pretty(q: &SqlQuery) -> String {
    let mut out = String::new();
    write_query(&mut out, q, 0, None);
    out
}

fn pad(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_query(out: &mut String, q: &SqlQuery, depth: usize, agg: Option<AggFunc>) {
    pad(out, depth);
    out.push_str("SELECT ");
    if let Some(f) = agg {
        let _ = write!(out, "{f}(");
    }
    match &q.projection {
        Projection::Columns(items) => {
            for (i, s) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_scalar(out, s, depth);
            }
        }
        Projection::Concat(items) => {
            out.push_str("concat(");
            for (i, s) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_scalar(out, s, depth);
            }
            out.push(')');
        }
    }
    if agg.is_some() {
        out.push(')');
    }
    out.push('\n');
    pad(out, depth);
    out.push_str("FROM ");
    for (i, f) in q.from.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "node AS {}", f.alias);
    }
    out.push('\n');
    let mut first = true;
    for f in &q.from {
        write_conjunct(out, depth, &mut first, |out| write_label_pred(out, f));
    }
    for p in &q.preds {
        write_conjunct(out, depth, &mut first, |out| write_pred(out, p, depth));
    }
    if !q.order_by.is_empty() {
        pad(out, depth);
        out.push_str("ORDER BY ");
        for (i, k) in q.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_scalar(out, &k.key, depth);
            if k.desc {
                out.push_str(" DESC");
            }
        }
        out.push('\n');
    }
}

/// `WHERE` on the first conjunct, aligned `AND` on the rest.
fn write_conjunct(
    out: &mut String,
    depth: usize,
    first: &mut bool,
    body: impl FnOnce(&mut String),
) {
    pad(out, depth);
    if *first {
        out.push_str("WHERE ");
        *first = false;
    } else {
        out.push_str("  AND ");
    }
    body(out);
    out.push('\n');
}

fn write_label_pred(out: &mut String, f: &FromItem) {
    match f.labels.as_slice() {
        [one] => {
            let _ = write!(out, "{}.label = {}", f.alias, quoted(one));
        }
        many => {
            let _ = write!(out, "{}.label IN (", f.alias);
            for (i, l) in many.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&quoted(l));
            }
            out.push(')');
        }
    }
}

fn quoted(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

fn write_scalar(out: &mut String, s: &Scalar, depth: usize) {
    match s {
        Scalar::Pre(a) => {
            let _ = write!(out, "{a}.pre");
        }
        Scalar::Val(a) => {
            let _ = write!(out, "strval({a})");
        }
        Scalar::Nodes {
            alias,
            axis,
            labels,
        } => {
            // Rendered as a correlated column set; the executor view is
            // the containment join documented in BACKENDS.md.
            let axis = match axis {
                crate::ast::PathAxis::Child => "child",
                crate::ast::PathAxis::Descendant => "descendant",
            };
            let _ = write!(out, "strval({axis}({alias}, ");
            for (i, l) in labels.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&quoted(l));
            }
            out.push_str("))");
        }
        Scalar::Str(v) => out.push_str(&quoted(v)),
        Scalar::Num(n) => out.push_str(&format_number(*n)),
        Scalar::Agg { func, query } => {
            out.push_str("(\n");
            write_query(out, query, depth + 1, Some(*func));
            pad(out, depth);
            out.push(')');
        }
    }
}

fn write_pred(out: &mut String, p: &Pred, depth: usize) {
    match p {
        Pred::Cmp { op, lhs, rhs } => {
            write_scalar(out, lhs, depth);
            // SQL spells inequality `<>`; the other operators read as in
            // XQuery.
            match op {
                CmpOp::Ne => out.push_str(" <> "),
                op => {
                    let _ = write!(out, " {op} ");
                }
            }
            write_scalar(out, rhs, depth);
        }
        Pred::StrFn { func, lhs, rhs } => {
            let _ = write!(out, "{func}(");
            write_scalar(out, lhs, depth);
            out.push_str(", ");
            write_scalar(out, rhs, depth);
            out.push(')');
        }
        Pred::Mqf(aliases) => {
            out.push_str("mqf(");
            out.push_str(&aliases.join(", "));
            out.push(')');
        }
        Pred::ChildOf { child, parent } => {
            let _ = write!(out, "{child}.parent_pre = {parent}.pre");
        }
        Pred::Within { inner, outer } => {
            let _ = write!(
                out,
                "({outer}.pre < {inner}.pre AND {inner}.pre <= {outer}.extent)"
            );
        }
        Pred::And(parts) => {
            out.push('(');
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(" AND ");
                }
                write_pred(out, part, depth);
            }
            out.push(')');
        }
        Pred::Or(parts) => {
            out.push('(');
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(" OR ");
                }
                write_pred(out, part, depth);
            }
            out.push(')');
        }
        Pred::Not(inner) => {
            out.push_str("NOT ");
            write_pred(out, inner, depth);
        }
        Pred::Exists { query, negated } => {
            if *negated {
                out.push_str("NOT ");
            }
            out.push_str("EXISTS (\n");
            write_query(out, query, depth + 1, None);
            pad(out, depth);
            out.push(')');
        }
    }
}
