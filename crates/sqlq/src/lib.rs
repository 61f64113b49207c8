#![warn(missing_docs)]
// The executor sits on the serving path of `POST /query` with
// `"backend": "sql"`; a panic would take the whole request down, so the
// escape hatches are denied exactly as in the other serving-path
// crates.
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

//! # sqlq — the SQL subset of the NaLIX SQL backend
//!
//! Three pieces, used together by `nalix::backend::sql`:
//!
//! - [`ast`] — the query AST: exactly the `SELECT … FROM node AS … WHERE
//!   … ORDER BY …` shapes the translator's FLWOR plans lower to, plus
//!   the dialect predicate `mqf(…)` (the MLCA meaningfulness test, whose
//!   relational expansion `docs/BACKENDS.md` spells out).
//! - [`pretty()`] — renders a query as SQL text (served by `/query`,
//!   snapshotted by the golden tests).
//! - [`exec`] — a panic-free nested-loop executor over a
//!   [`relstore::Shredding`], with conjunct pushdown and the XQuery
//!   engine's value semantics (existential general comparison,
//!   numeric-when-both-parse ordering, engine-identical aggregates and
//!   atomization), so both backends produce the same answer sets.

pub mod ast;
pub mod exec;
pub mod pretty;

pub use ast::{
    FromItem, OrderSpec, PathAxis, Pred, Projection, Scalar, SqlAgg, SqlCmp, SqlQuery, StrFn,
};
pub use exec::{compare_vals, execute, ExecLimits, SqlError, SqlOutput, SqlVal};
pub use pretty::pretty;

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::Shredding;

    fn doc(xml: &str) -> xmldb::Document {
        xmldb::Document::parse_str(xml).unwrap()
    }

    fn val(a: &str) -> Scalar {
        Scalar::Val(a.into())
    }

    fn from(alias: &str, labels: &[&str]) -> FromItem {
        FromItem {
            alias: alias.into(),
            labels: labels.iter().map(|l| (*l).to_owned()).collect(),
        }
    }

    fn run(shred: &Shredding, q: &SqlQuery) -> Vec<String> {
        execute(shred, q, &ExecLimits::default())
            .unwrap()
            .strings(shred)
    }

    const BIB: &str = "<bib>\
        <book><title>TCP/IP Illustrated</title><price>65.95</price><year>1994</year></book>\
        <book><title>Advanced Unix</title><price>65.95</price><year>1992</year></book>\
        <book><title>Data on the Web</title><price>39.95</price><year>2000</year></book>\
        </bib>";

    #[test]
    fn selection_with_constant_filter() {
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let q = SqlQuery {
            projection: Projection::Columns(vec![val("v1")]),
            from: vec![from("v1", &["title"]), from("v2", &["price"])],
            preds: vec![
                Pred::Mqf(vec!["v1".into(), "v2".into()]),
                Pred::Cmp {
                    op: SqlCmp::Lt,
                    lhs: val("v2"),
                    rhs: Scalar::Num(50.0),
                },
            ],
            order_by: vec![],
        };
        assert_eq!(run(&s, &q), vec!["Data on the Web"]);
    }

    #[test]
    fn order_by_sorts_numerically_and_desc_reverses() {
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let mut q = SqlQuery {
            projection: Projection::Columns(vec![val("v1")]),
            from: vec![from("v1", &["year"])],
            preds: vec![],
            order_by: vec![OrderSpec {
                key: val("v1"),
                desc: false,
            }],
        };
        assert_eq!(run(&s, &q), vec!["1992", "1994", "2000"]);
        q.order_by[0].desc = true;
        assert_eq!(run(&s, &q), vec!["2000", "1994", "1992"]);
    }

    #[test]
    fn uncorrelated_min_subquery_selects_cheapest_book() {
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let q = SqlQuery {
            projection: Projection::Columns(vec![val("v1")]),
            from: vec![from("v1", &["title"]), from("v2", &["price"])],
            preds: vec![
                Pred::Mqf(vec!["v1".into(), "v2".into()]),
                Pred::Cmp {
                    op: SqlCmp::Eq,
                    lhs: val("v2"),
                    rhs: Scalar::Agg {
                        func: SqlAgg::Min,
                        query: Box::new(SqlQuery {
                            projection: Projection::Columns(vec![val("v3")]),
                            from: vec![from("v3", &["price"])],
                            preds: vec![],
                            order_by: vec![],
                        }),
                    },
                },
            ],
            order_by: vec![],
        };
        assert_eq!(run(&s, &q), vec!["Data on the Web"]);
    }

    #[test]
    fn correlated_count_subquery_sees_outer_alias() {
        // Each book carries exactly one price, so a correlated
        // `count(price within this book) = 1` keeps every title.
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let q = SqlQuery {
            projection: Projection::Columns(vec![val("v1")]),
            from: vec![from("v1", &["book"])],
            preds: vec![Pred::Cmp {
                op: SqlCmp::Eq,
                lhs: Scalar::Agg {
                    func: SqlAgg::Count,
                    query: Box::new(SqlQuery {
                        projection: Projection::Columns(vec![val("q1")]),
                        from: vec![from("q1", &["price"])],
                        preds: vec![Pred::Within {
                            inner: "q1".into(),
                            outer: "v1".into(),
                        }],
                        order_by: vec![],
                    }),
                },
                rhs: Scalar::Num(1.0),
            }],
            order_by: vec![],
        };
        assert_eq!(run(&s, &q).len(), 3);
    }

    #[test]
    fn count_aggregate_over_empty_input_is_zero() {
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let q = SqlQuery {
            projection: Projection::Columns(vec![Scalar::Agg {
                func: SqlAgg::Count,
                query: Box::new(SqlQuery {
                    projection: Projection::Columns(vec![val("v1")]),
                    from: vec![from("v1", &["isbn"])],
                    preds: vec![],
                    order_by: vec![],
                }),
            }]),
            from: vec![from("v0", &["bib"])],
            preds: vec![],
            order_by: vec![],
        };
        assert_eq!(run(&s, &q), vec!["0"]);
    }

    #[test]
    fn sum_over_non_numeric_is_a_type_error() {
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let q = SqlQuery {
            projection: Projection::Columns(vec![Scalar::Agg {
                func: SqlAgg::Sum,
                query: Box::new(SqlQuery {
                    projection: Projection::Columns(vec![val("v1")]),
                    from: vec![from("v1", &["title"])],
                    preds: vec![],
                    order_by: vec![],
                }),
            }]),
            from: vec![from("v0", &["bib"])],
            preds: vec![],
            order_by: vec![],
        };
        let err = execute(&s, &q, &ExecLimits::default()).unwrap_err();
        assert!(matches!(err, SqlError::TypeError(_)), "{err}");
    }

    #[test]
    fn child_and_within_joins() {
        let d = doc("<a><b><c>x</c></b><c>y</c></a>");
        let s = Shredding::build(&d);
        let child = SqlQuery {
            projection: Projection::Columns(vec![val("v2")]),
            from: vec![from("v1", &["a"]), from("v2", &["c"])],
            preds: vec![Pred::ChildOf {
                child: "v2".into(),
                parent: "v1".into(),
            }],
            order_by: vec![],
        };
        assert_eq!(run(&s, &child), vec!["y"]);
        let within = SqlQuery {
            projection: Projection::Columns(vec![val("v2")]),
            from: vec![from("v1", &["a"]), from("v2", &["c"])],
            preds: vec![Pred::Within {
                inner: "v2".into(),
                outer: "v1".into(),
            }],
            order_by: vec![],
        };
        assert_eq!(run(&s, &within), vec!["x", "y"]);
    }

    #[test]
    fn not_exists_implements_universal_quantification() {
        // Books where *every* related price < 50 (i.e. NOT EXISTS a
        // related price >= 50): only the third book qualifies.
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let q = SqlQuery {
            projection: Projection::Columns(vec![val("v1")]),
            from: vec![from("v1", &["title"])],
            preds: vec![Pred::Exists {
                negated: true,
                query: Box::new(SqlQuery {
                    projection: Projection::Columns(vec![val("q1")]),
                    from: vec![from("q1", &["price"])],
                    preds: vec![
                        Pred::Mqf(vec!["q1".into(), "v1".into()]),
                        Pred::Cmp {
                            op: SqlCmp::Ge,
                            lhs: val("q1"),
                            rhs: Scalar::Num(50.0),
                        },
                    ],
                    order_by: vec![],
                }),
            }],
            order_by: vec![],
        };
        assert_eq!(run(&s, &q), vec!["Data on the Web"]);
    }

    #[test]
    fn nodes_scalar_reads_children_values() {
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let q = SqlQuery {
            projection: Projection::Columns(vec![Scalar::Nodes {
                alias: "v1".into(),
                axis: PathAxis::Child,
                labels: vec!["title".into()],
            }]),
            from: vec![from("v1", &["book"])],
            preds: vec![Pred::Cmp {
                op: SqlCmp::Eq,
                lhs: Scalar::Nodes {
                    alias: "v1".into(),
                    axis: PathAxis::Descendant,
                    labels: vec!["year".into()],
                },
                rhs: Scalar::Str("2000".into()),
            }],
            order_by: vec![],
        };
        assert_eq!(run(&s, &q), vec!["Data on the Web"]);
    }

    #[test]
    fn concat_projection_joins_values_per_row() {
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let q = SqlQuery {
            projection: Projection::Concat(vec![val("v1"), Scalar::Str(" / ".into()), val("v2")]),
            from: vec![from("v1", &["title"]), from("v2", &["year"])],
            preds: vec![Pred::Mqf(vec!["v1".into(), "v2".into()])],
            order_by: vec![],
        };
        assert_eq!(
            run(&s, &q),
            vec![
                "TCP/IP Illustrated / 1994",
                "Advanced Unix / 1992",
                "Data on the Web / 2000"
            ]
        );
    }

    #[test]
    fn str_fn_predicates() {
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let q = SqlQuery {
            projection: Projection::Columns(vec![val("v1")]),
            from: vec![from("v1", &["title"])],
            preds: vec![Pred::StrFn {
                func: StrFn::Contains,
                lhs: val("v1"),
                rhs: Scalar::Str("Web".into()),
            }],
            order_by: vec![],
        };
        assert_eq!(run(&s, &q), vec!["Data on the Web"]);
    }

    #[test]
    fn tuple_budget_aborts() {
        let d = doc(BIB);
        let s = Shredding::build(&d);
        let q = SqlQuery {
            projection: Projection::Columns(vec![val("v1")]),
            from: vec![from("v1", &["title"]), from("v2", &["price"])],
            preds: vec![],
            order_by: vec![],
        };
        let err = execute(
            &s,
            &q,
            &ExecLimits {
                max_tuples: Some(2),
            },
        )
        .unwrap_err();
        assert_eq!(err, SqlError::Budget(2));
    }

    #[test]
    fn pretty_prints_the_subset() {
        let q = SqlQuery {
            projection: Projection::Columns(vec![val("v1")]),
            from: vec![from("v1", &["title"]), from("v2", &["price"])],
            preds: vec![
                Pred::Mqf(vec!["v1".into(), "v2".into()]),
                Pred::Cmp {
                    op: SqlCmp::Lt,
                    lhs: val("v2"),
                    rhs: Scalar::Num(50.0),
                },
            ],
            order_by: vec![OrderSpec {
                key: Scalar::Pre("v1".into()),
                desc: false,
            }],
        };
        let text = pretty(&q);
        assert_eq!(
            text,
            "SELECT strval(v1)\n\
             FROM node AS v1, node AS v2\n\
             WHERE v1.label = 'title'\n\
             \x20 AND v2.label = 'price'\n\
             \x20 AND mqf(v1, v2)\n\
             \x20 AND strval(v2) < 50\n\
             ORDER BY v1.pre\n"
        );
    }

    #[test]
    fn executor_matches_xquery_engine_on_a_joint_query() {
        // Differential check: the same logical query through the XQuery
        // engine and through the SQL executor.
        let doc = std::sync::Arc::new(xmldb::Document::parse_str(BIB).unwrap());
        let expr = xquery::parse(
            "for $t in doc()//title, $p in doc()//price \
             where mqf($t,$p) and $p < 50 return $t",
        )
        .unwrap();
        let engine = xquery::Engine::new(doc.clone());
        let seq = engine.eval_expr(&expr).unwrap();
        let xq = engine.strings(&seq);
        let s = Shredding::build(&doc);
        let q = SqlQuery {
            projection: Projection::Columns(vec![val("t")]),
            from: vec![from("t", &["title"]), from("p", &["price"])],
            preds: vec![
                Pred::Mqf(vec!["t".into(), "p".into()]),
                Pred::Cmp {
                    op: SqlCmp::Lt,
                    lhs: val("p"),
                    rhs: Scalar::Num(50.0),
                },
            ],
            order_by: vec![],
        };
        assert_eq!(run(&s, &q), xq);
    }
}
