//! Regression tests for how both backends decide that a value is a
//! number and how they sort mixed columns.
//!
//! - Words Rust's `f64` parser accepts (`"Nan"`, `"inf"`, `"Infinity"`)
//!   are strings, not non-finite numbers: as NaN they compared equal to
//!   every number on one XQuery path but not on the other.
//! - `order by` over a column mixing numbers and other strings sorts by
//!   one total order on both backends (numbers by value first, then
//!   strings by bytes). General comparison's order is not transitive on
//!   such a column, and `slice::sort_by` may panic on a comparator that
//!   is not a total order.

use nalix_repro::nalix::{BackendKind, Nalix, Outcome};
use nalix_repro::relstore::Shredding;
use nalix_repro::sqlq::{
    self, CmpOp, ExecLimits, FromItem, OrderSpec, Pred, Projection, Scalar, SqlQuery,
};
use nalix_repro::xmldb::Document;
use nalix_repro::xquery::{Engine, EvalBudget};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn xquery(doc: &Document, q: &str) -> Vec<String> {
    let e = Engine::new(doc.clone());
    let out = e.run(q).unwrap_or_else(|err| panic!("{q}: {err}"));
    e.strings(&out)
}

/// `SELECT strval(v1) FROM node AS v1 WHERE v1.label = 'a' [AND …]
/// [ORDER BY strval(v1) [DESC]]`.
fn sql_column(doc: &Document, preds: Vec<Pred>, order: Option<bool>) -> Vec<String> {
    let q = SqlQuery {
        projection: Projection::Columns(vec![Scalar::Val("v1".into())]),
        from: vec![FromItem {
            alias: "v1".into(),
            labels: vec!["a".into()],
        }],
        preds,
        order_by: order
            .map(|desc| OrderSpec {
                key: Scalar::Val("v1".into()),
                desc,
            })
            .into_iter()
            .collect(),
    };
    let shred = Shredding::build(doc);
    sqlq::execute(&shred, &q, &ExecLimits::default())
        .unwrap()
        .strings(&shred)
}

#[test]
fn words_that_parse_as_non_finite_numbers_compare_as_strings() {
    let doc =
        Document::parse_str("<r><a>Nan</a><a>7</a><a>inf</a><a>Infinity</a><a>5</a></r>").unwrap();
    // Value-index path (`$v` ranges over a label scan) and scan path
    // (`$v` ranges over a per-tuple child path) must agree.
    let indexed = xquery(&doc, "for $v in doc()//a where $v = 5 return $v");
    let scanned = xquery(
        &doc,
        "for $x in doc()//r, $v in $x/a where $v = 5 return $v",
    );
    assert_eq!(indexed, vec!["5"]);
    assert_eq!(scanned, vec!["5"]);
    let sql = sql_column(
        &doc,
        vec![Pred::Cmp {
            op: CmpOp::Eq,
            lhs: Scalar::Val("v1".into()),
            rhs: Scalar::Num(5.0),
        }],
        None,
    );
    assert_eq!(sql, vec!["5"]);

    // Against a number, the words compare as strings on every path:
    // "Nan", "inf" and "Infinity" all sort after "5" by bytes.
    let gt = "for $x in doc()//r, $v in $x/a where $v > 5 return $v";
    assert_eq!(xquery(&doc, gt), vec!["Nan", "7", "inf", "Infinity"]);
    let sql_gt = sql_column(
        &doc,
        vec![Pred::Cmp {
            op: CmpOp::Gt,
            lhs: Scalar::Val("v1".into()),
            rhs: Scalar::Num(5.0),
        }],
        None,
    );
    assert_eq!(sql_gt, vec!["Nan", "7", "inf", "Infinity"]);

    // `sum` treats them as non-numeric, as it treats any other word.
    let e = Engine::new(doc.clone());
    assert!(e.run("sum(doc()//a)").is_err());
}

#[test]
fn a_quoted_word_that_rust_reads_as_nan_stays_a_string_literal() {
    let doc = Document::parse_str(
        "<bib>\
         <book><title>Numbers</title><author>Nan</author></book>\
         <book><title>Letters</title><author>Ada</author></book>\
         </bib>",
    )
    .unwrap();
    let nalix = Nalix::new(doc);
    let q = "Return the title of every book written by \"Nan\".";
    let Outcome::Translated(t) = nalix.query(q) else {
        panic!("{q} should translate");
    };
    let text = nalix_repro::xquery::pretty::pretty(&t.translation.query);
    assert!(text.contains("\"Nan\""), "{text}");
    assert!(!text.contains("NaN"), "{text}");
    let budget = EvalBudget::default();
    let xq = nalix.answer_set(BackendKind::Xquery, q, &budget).unwrap();
    let sql = nalix.answer_set(BackendKind::Sql, q, &budget).unwrap();
    assert_eq!(xq.values, vec!["Numbers"]);
    assert!(xq.equivalent(&sql), "{xq:?} vs {sql:?}");
}

/// The order `order by` must produce: numbers (finite parses) by value,
/// then the other strings by bytes; equal keys keep document order.
fn expected_order(column: &[&str], desc: bool) -> Vec<String> {
    fn class(s: &str) -> (u8, f64, &str) {
        match s.trim().parse::<f64>() {
            Ok(n) if n.is_finite() => (0, n, ""),
            _ => (1, 0.0, s),
        }
    }
    let mut v: Vec<&str> = column.to_vec();
    v.sort_by(|a, b| {
        let (ca, na, sa) = class(a);
        let (cb, nb, sb) = class(b);
        let o = ca
            .cmp(&cb)
            .then(na.partial_cmp(&nb).unwrap_or(std::cmp::Ordering::Equal))
            .then(sa.cmp(sb));
        if desc {
            o.reverse()
        } else {
            o
        }
    });
    v.into_iter().map(str::to_owned).collect()
}

#[test]
fn order_by_sorts_mixed_columns_by_one_total_order_on_both_backends() {
    const VALUES: [&str; 12] = [
        "2", "10", "1a", "Nan", "7", "x", "3", "100", "9b", "inf", "42", "b",
    ];
    let mut rng = StdRng::seed_from_u64(0x50_47);
    let columns: Vec<Vec<&str>> = (0..200)
        .map(|_| {
            let len = rng.gen_range(30..=627usize);
            (0..len)
                .map(|_| VALUES[rng.gen_range(0..VALUES.len())])
                .collect()
        })
        .collect();
    // Sort every column on both backends first: with a comparator that
    // is not a total order, `sort_by` panics on some of these columns.
    let mut sorted = Vec::new();
    for (column, values) in columns.iter().enumerate() {
        let mut xml = String::from("<r>");
        for v in values {
            xml.push_str(&format!("<a>{v}</a>"));
        }
        xml.push_str("</r>");
        let doc = Document::parse_str(&xml).unwrap();
        for desc in [false, true] {
            let dir = if desc { " descending" } else { "" };
            let engine = xquery(
                &doc,
                &format!("for $v in doc()//a order by $v{dir} return $v"),
            );
            let sql = sql_column(&doc, vec![], Some(desc));
            sorted.push((column, values, desc, engine, sql));
        }
    }
    for (column, values, desc, engine, sql) in sorted {
        let want = expected_order(values, desc);
        let len = values.len();
        assert_eq!(
            engine, want,
            "column {column} ({len} values, desc {desc}), engine"
        );
        assert_eq!(
            sql, want,
            "column {column} ({len} values, desc {desc}), sql"
        );
    }
}
