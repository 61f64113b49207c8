//! Lowering the shared FLWOR plan to the `sqlq` SQL subset.
//!
//! The translator ([`crate::translate`]) emits a closed family of
//! Schema-Free XQuery shapes — `for` bindings over `doc()//label`
//! sources, aggregate `let`s holding inner FLWORs, a conjunctive
//! `where` of `mqf`/comparison/string-call/quantified parts, optional
//! `order by`, and a single-operand or `element result {…}` return.
//! Each shape has one relational image over the `relstore` tables:
//!
//! | FLWOR | SQL |
//! |---|---|
//! | `for $v in doc()//(a\|b)` | `FROM node AS v` + `v.label IN ('a','b')` |
//! | `mqf($a, $b, …)` | the dialect predicate `mqf(a, b, …)` |
//! | `$a op $b` / `$a op const` | `strval(a) op strval(b)` … |
//! | `contains($a, "x")` etc. | `contains(strval(a), 'x')` |
//! | `let $s := (for … return $x)` + `f($s)` | correlated scalar subquery `(SELECT f(strval(x)) FROM …)` |
//! | `every $q in S satisfies P` | `NOT EXISTS (SELECT q FROM S WHERE NOT P)` |
//! | `order by $k` | `ORDER BY strval(k)` + source-order `pre` tiebreakers |
//! | `return element result { a, b }` | `SELECT concat(…)` |
//!
//! Lowering is total over everything the pipeline emits; a shape
//! outside the family is a [`TranslateError`] (never reachable from a
//! validated question — the error exists so hand-built expressions fail
//! typed instead of silently).

use crate::translate::{TranslateError, Translation};
use sqlq::{FromItem, OrderSpec, PathAxis, Pred, Projection, Scalar, SqlQuery, StrFn};
use std::collections::HashMap;
use xquery::{Binding, Expr, OrderDir, PathRoot, Quantifier, Step, StepAxis};

fn err(msg: impl Into<String>) -> TranslateError {
    TranslateError {
        message: msg.into(),
    }
}

/// Lower a translation's emitted FLWOR plan into one [`SqlQuery`].
pub fn lower(t: &Translation) -> Result<SqlQuery, TranslateError> {
    lower_flwor(&t.query, true)
}

/// True when the plan carries an explicit `order by` from the question
/// (the [`crate::backend::AnswerSet`] `ordered` flag).
pub fn has_explicit_order(t: &Translation) -> bool {
    matches!(&t.query, Expr::Flwor { order_by, .. } if !order_by.is_empty())
}

/// `$v` as a bare variable reference.
fn as_bare_var(e: &Expr) -> Option<&str> {
    match e {
        Expr::Path {
            root: PathRoot::Var(v),
            steps,
        } if steps.is_empty() => Some(v),
        _ => None,
    }
}

/// `doc()//name` / `doc()//(a|b)` as its label list.
fn as_doc_descendant(e: &Expr) -> Option<&[String]> {
    match e {
        Expr::Path {
            root: PathRoot::Doc(_),
            steps,
        } => match steps.as_slice() {
            [Step { names, .. }] if !names.is_empty() => Some(names),
            _ => None,
        },
        _ => None,
    }
}

/// The aggregate `let` bodies of the enclosing FLWOR, by variable name.
type Lets<'e> = HashMap<&'e str, &'e Expr>;

fn lower_flwor(e: &Expr, top: bool) -> Result<SqlQuery, TranslateError> {
    let Expr::Flwor {
        bindings,
        where_clause,
        order_by,
        ret,
    } = e
    else {
        return Err(err("SQL backend: plan is not a FLWOR expression"));
    };

    let mut from = Vec::new();
    let mut lets: Lets<'_> = HashMap::new();
    for b in bindings {
        match b {
            Binding::For { var, source } => {
                let labels = as_doc_descendant(source).ok_or_else(|| {
                    err(format!(
                        "SQL backend: `for ${var}` ranges over an unsupported source"
                    ))
                })?;
                from.push(FromItem {
                    alias: var.clone(),
                    labels: labels.to_vec(),
                });
            }
            Binding::Let { var, value } => {
                lets.insert(var.as_str(), value);
            }
        }
    }

    let mut preds = Vec::new();
    if let Some(w) = where_clause {
        // The translator's where is a flat conjunction; flatten it into
        // the query's conjunct list so pushdown sees each part.
        match w.as_ref() {
            Expr::And(parts) => {
                for p in parts {
                    preds.push(lower_pred(p, &lets)?);
                }
            }
            other => preds.push(lower_pred(other, &lets)?),
        }
    }

    let mut order = Vec::new();
    for k in order_by {
        let key = lower_scalar(&k.expr, &lets)?;
        order.push(OrderSpec {
            key,
            desc: matches!(k.dir, OrderDir::Descending),
        });
    }
    if top && !order.is_empty() {
        // The engine's order-by sort is stable over source-order
        // tuples; pre tiebreakers in binding order make that total
        // order explicit in the relational plan.
        for f in &from {
            order.push(OrderSpec {
                key: Scalar::Pre(f.alias.clone()),
                desc: false,
            });
        }
    }

    let projection = match ret.as_ref() {
        Expr::Element { content, .. } => {
            let mut items = Vec::with_capacity(content.len());
            for c in content {
                items.push(lower_scalar(c, &lets)?);
            }
            Projection::Concat(items)
        }
        single => Projection::Columns(vec![lower_scalar(single, &lets)?]),
    };

    Ok(SqlQuery {
        projection,
        from,
        preds,
        order_by: order,
    })
}

fn lower_scalar(e: &Expr, lets: &Lets<'_>) -> Result<Scalar, TranslateError> {
    if let Some(v) = as_bare_var(e) {
        return Ok(Scalar::Val(v.to_owned()));
    }
    match e {
        Expr::Str(s) => Ok(Scalar::Str(s.clone())),
        Expr::Num(n) => Ok(Scalar::Num(*n)),
        Expr::Path {
            root: PathRoot::Var(v),
            steps,
        } => match steps.as_slice() {
            [Step { axis, names }] if !names.is_empty() => Ok(Scalar::Nodes {
                alias: v.clone(),
                axis: match axis {
                    StepAxis::Child => PathAxis::Child,
                    StepAxis::Descendant => PathAxis::Descendant,
                },
                labels: names.clone(),
            }),
            _ => Err(err(format!("SQL backend: unsupported path under `${v}`"))),
        },
        Expr::Agg { func, arg } => {
            let query = match as_bare_var(arg) {
                Some(name) => {
                    let body = lets.get(name).ok_or_else(|| {
                        err(format!("SQL backend: aggregate over unbound `${name}`"))
                    })?;
                    lower_flwor(body, false)?
                }
                None => {
                    // Aggregate directly over a `doc()//label` source:
                    // an uncorrelated single-table subquery.
                    let labels = as_doc_descendant(arg)
                        .ok_or_else(|| err("SQL backend: unsupported aggregate argument"))?;
                    SqlQuery {
                        projection: Projection::Columns(vec![Scalar::Val("q0".into())]),
                        from: vec![FromItem {
                            alias: "q0".into(),
                            labels: labels.to_vec(),
                        }],
                        preds: vec![],
                        order_by: vec![],
                    }
                }
            };
            Ok(Scalar::Agg {
                func: *func,
                query: Box::new(query),
            })
        }
        other => Err(err(format!(
            "SQL backend: unsupported scalar expression ({other:?})"
        ))),
    }
}

fn lower_pred(e: &Expr, lets: &Lets<'_>) -> Result<Pred, TranslateError> {
    match e {
        Expr::Mqf(args) => {
            let mut aliases = Vec::with_capacity(args.len());
            for a in args {
                let v = as_bare_var(a)
                    .ok_or_else(|| err("SQL backend: mqf over a non-variable argument"))?;
                aliases.push(v.to_owned());
            }
            Ok(Pred::Mqf(aliases))
        }
        Expr::Cmp { op, lhs, rhs } => Ok(Pred::Cmp {
            op: *op,
            lhs: lower_scalar(lhs, lets)?,
            rhs: lower_scalar(rhs, lets)?,
        }),
        Expr::And(parts) => Ok(Pred::And(
            parts
                .iter()
                .map(|p| lower_pred(p, lets))
                .collect::<Result<_, _>>()?,
        )),
        Expr::Or(parts) => Ok(Pred::Or(
            parts
                .iter()
                .map(|p| lower_pred(p, lets))
                .collect::<Result<_, _>>()?,
        )),
        Expr::Not(inner) => Ok(Pred::Not(Box::new(lower_pred(inner, lets)?))),
        Expr::Call { name, args } => {
            let func = match name.as_str() {
                "contains" => StrFn::Contains,
                "starts-with" => StrFn::StartsWith,
                "ends-with" => StrFn::EndsWith,
                other => {
                    return Err(err(format!(
                        "SQL backend: unsupported function call `{other}`"
                    )))
                }
            };
            let (lhs, rhs) = match args.as_slice() {
                [l, r] => (lower_scalar(l, lets)?, lower_scalar(r, lets)?),
                _ => return Err(err(format!("SQL backend: `{name}` expects 2 arguments"))),
            };
            Ok(Pred::StrFn { func, lhs, rhs })
        }
        Expr::Quantified {
            quant,
            var,
            source,
            satisfies,
        } => {
            let labels = as_doc_descendant(source)
                .ok_or_else(|| err("SQL backend: quantifier over an unsupported source"))?;
            let inner = lower_pred(satisfies, lets)?;
            // every $q in S satisfies P  ⇔  NOT EXISTS (S WHERE NOT P)
            // some  $q in S satisfies P  ⇔      EXISTS (S WHERE P)
            let (negated, pred) = match quant {
                Quantifier::Every => (true, Pred::Not(Box::new(inner))),
                Quantifier::Some => (false, inner),
            };
            Ok(Pred::Exists {
                negated,
                query: Box::new(SqlQuery {
                    projection: Projection::Columns(vec![Scalar::Val(var.clone())]),
                    from: vec![FromItem {
                        alias: var.clone(),
                        labels: labels.to_vec(),
                    }],
                    preds: vec![pred],
                    order_by: vec![],
                }),
            })
        }
        other => Err(err(format!(
            "SQL backend: unsupported predicate ({other:?})"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::classify::classify;
    use crate::validate::validate;
    use xmldb::Document;

    fn translation(doc: &Document, q: &str) -> Translation {
        let catalog = Catalog::build(doc);
        let v = validate(classify(&nlparser::parse(q).unwrap()), &catalog);
        assert!(v.is_valid(), "{q}: {:?}", v.feedback);
        crate::translate::translate(&v.tree).unwrap()
    }

    #[test]
    fn lowers_a_selection_join() {
        let doc = xmldb::datasets::movies::movies();
        let t = translation(&doc, "Find all the movies directed by Ron Howard.");
        let q = lower(&t).unwrap();
        assert!(!q.from.is_empty());
        let text = sqlq::pretty(&q);
        assert!(text.contains("FROM node AS"), "{text}");
        assert!(text.contains("mqf("), "{text}");
        assert!(text.contains("'Ron Howard'"), "{text}");
    }

    #[test]
    fn lowers_an_aggregate_let_to_a_scalar_subquery() {
        let doc = xmldb::datasets::movies::movies();
        let t = translation(&doc, "Return the number of movies directed by Ron Howard.");
        let q = lower(&t).unwrap();
        let text = sqlq::pretty(&q);
        assert!(text.contains("count("), "{text}");
        assert!(text.contains("SELECT"), "{text}");
    }

    #[test]
    fn explicit_order_carries_pre_tiebreakers() {
        let doc = xmldb::datasets::movies::movies();
        let t = translation(&doc, "Return the title of every movie, sorted by year.");
        assert!(has_explicit_order(&t));
        let q = lower(&t).unwrap();
        assert!(
            q.order_by.len() > q.from.len(),
            "explicit key plus one pre tiebreaker per binding"
        );
        let text = sqlq::pretty(&q);
        assert!(text.contains("ORDER BY"), "{text}");
        assert!(text.contains(".pre"), "{text}");
    }

    #[test]
    fn unordered_plans_get_no_order_by() {
        let doc = xmldb::datasets::movies::movies();
        let t = translation(&doc, "Find all the movies directed by Ron Howard.");
        assert!(!has_explicit_order(&t));
        let q = lower(&t).unwrap();
        assert!(q.order_by.is_empty());
    }
}
