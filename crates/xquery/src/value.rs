//! Runtime values: items, sequences, atomization, comparison and
//! aggregation. This is the one value layer of both backends: the
//! XQuery engine and the `sqlq` executor compare with
//! [`general_compare`], aggregate with [`aggregate`] and sort with
//! [`SortKey`].

use crate::ast::{AggFunc, CmpOp};
use std::borrow::Cow;
use std::cmp::Ordering;
use xmldb::{Document, NodeId};

/// A constructed element value, produced by computed element
/// constructors. Unlike [`Item::Node`], these do not live in the
/// document arena — they are ephemeral result structures.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstructedElem {
    /// Element name.
    pub name: String,
    /// Content items in order.
    pub children: Vec<Item>,
}

/// A single item of a sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A node of the engine's document.
    Node(NodeId),
    /// A string.
    Str(String),
    /// A double (all numerics are doubles, as in XPath 1.0).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A constructed element.
    Elem(ConstructedElem),
}

/// A (possibly empty) sequence of items — the result of every
/// expression evaluation.
pub type Sequence = Vec<Item>;

impl Item {
    /// Atomized string value.
    ///
    /// Elements with **mixed content** (own text plus child elements,
    /// like the paper's `<year>2000 <movie>…</movie></year>` or an
    /// inverted schema's `<director>Kira <movie>…</movie></director>`)
    /// atomize to their *direct* text: that is the value the element
    /// itself carries, and it is what comparisons like
    /// `$director = "Kira"` must see. Elements without own text keep
    /// the XPath whole-subtree string value.
    pub fn string_value(&self, doc: &Document) -> String {
        self.atom_value(doc).into_owned()
    }

    /// Atomized value, borrowed from the document's string heap when the
    /// item is a node whose value lives there verbatim (text nodes,
    /// attributes, single-text leaf elements — the overwhelming
    /// majority). The allocation-free form of [`Item::string_value`];
    /// comparisons and index probes go through this.
    pub fn atom_value<'a>(&'a self, doc: &'a Document) -> Cow<'a, str> {
        match self {
            Item::Node(id) => doc.atom_value(*id),
            Item::Str(s) => Cow::Borrowed(s.as_str()),
            Item::Num(n) => Cow::Owned(format_number(*n)),
            Item::Bool(b) => Cow::Owned(b.to_string()),
            Item::Elem(e) => Cow::Owned(
                e.children
                    .iter()
                    .map(|c| c.string_value(doc))
                    .collect::<Vec<_>>()
                    .join(""),
            ),
        }
    }

    /// Atomized numeric value, when the item looks like a number: a
    /// number is itself, a boolean 0 or 1, and anything else its
    /// atomized string read by [`parse_finite`].
    pub fn numeric_value(&self, doc: &Document) -> Option<f64> {
        Atom::of(doc, self).num
    }

    /// True for node items.
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Item::Node(id) => Some(*id),
            _ => None,
        }
    }
}

/// XPath-1.0-flavoured number formatting: integers print without a
/// decimal point.
pub fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// The numeric reading of an atomized string: its trimmed text parsed as
/// a *finite* number. Every place that decides whether a string value
/// is numeric goes through here. Rust's `f64` parser also accepts
/// `"NaN"`, `"inf"` and `"Infinity"`; those are words in a document (an
/// author called "Nan"), and as NaN such an author would not even equal
/// the literal `"Nan"`.
pub fn parse_finite(s: &str) -> Option<f64> {
    s.trim().parse::<f64>().ok().filter(|n| n.is_finite())
}

/// An item atomized once: its string value and, when the item is
/// numeric ([`Item::numeric_value`]), its number, derived from the same
/// string. Comparison, aggregation and sort keys all read items through
/// this.
struct Atom<'a> {
    text: Cow<'a, str>,
    num: Option<f64>,
}

impl<'a> Atom<'a> {
    fn of(doc: &'a Document, item: &'a Item) -> Atom<'a> {
        let text = item.atom_value(doc);
        let num = match item {
            Item::Num(n) => Some(*n),
            Item::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => parse_finite(&text),
        };
        Atom { text, num }
    }

    /// Numerically when both sides are numeric, by bytes otherwise;
    /// `None` when both are numbers and either is NaN (which only a
    /// computed number can be).
    fn compare(&self, other: &Atom<'_>) -> Option<Ordering> {
        match (self.num, other.num) {
            (Some(x), Some(y)) => x.partial_cmp(&y),
            _ => Some(self.text.cmp(&other.text)),
        }
    }
}

/// Compare two atomized items: numerically when both sides are numeric,
/// lexicographically otherwise; `None` when both are numbers and either
/// is NaN. This is general comparison's order; it is not transitive
/// over a mix of numbers and other strings (`"2" < "10"` as numbers,
/// `"10" < "1a" < "2"` as strings), so `order by` sorts with
/// [`SortKey`] instead.
pub fn compare_items(doc: &Document, a: &Item, b: &Item) -> Option<Ordering> {
    // Atomize each side once, borrowed where possible — the hot path of
    // predicate scans performs zero allocations per comparison.
    Atom::of(doc, a).compare(&Atom::of(doc, b))
}

/// Does `op` hold between two items [`compare_items`] ordered `ord`?
/// An unordered pair (NaN) satisfies only `!=`, as in XPath.
fn holds(op: CmpOp, ord: Option<Ordering>) -> bool {
    match (op, ord) {
        (CmpOp::Ne, ord) => ord != Some(Ordering::Equal),
        (_, None) => false,
        (CmpOp::Eq, Some(o)) => o == Ordering::Equal,
        (CmpOp::Lt, Some(o)) => o == Ordering::Less,
        (CmpOp::Le, Some(o)) => o != Ordering::Greater,
        (CmpOp::Gt, Some(o)) => o == Ordering::Greater,
        (CmpOp::Ge, Some(o)) => o != Ordering::Less,
    }
}

/// General comparison: true when `op` holds for some item of `lhs`
/// and some item of `rhs` (existential over both sequences).
pub fn general_compare(doc: &Document, op: CmpOp, lhs: &[Item], rhs: &[Item]) -> bool {
    lhs.iter()
        .any(|a| rhs.iter().any(|b| holds(op, compare_items(doc, a, b))))
}

/// `count`, `sum`, `avg`, `min` or `max` of `seq`: one item, or none
/// for `avg`, `min` and `max` of an empty sequence. `Err` carries the
/// type error of `sum` or `avg` over a non-numeric item.
///
/// `min` and `max` atomize each item once and scan in sequence order,
/// keeping the first best item: an item replaces the best so far only
/// when [`compare_items`] orders it strictly before (`min`) or after
/// (`max`) it.
pub fn aggregate(doc: &Document, func: AggFunc, seq: &[Item]) -> Result<Sequence, String> {
    let total = |name: &str| -> Result<f64, String> {
        let mut total = 0.0;
        for item in seq {
            total += item.numeric_value(doc).ok_or_else(|| {
                format!(
                    "{name}() over non-numeric value `{}`",
                    item.string_value(doc)
                )
            })?;
        }
        Ok(total)
    };
    match func {
        AggFunc::Count => Ok(vec![Item::Num(seq.len() as f64)]),
        AggFunc::Sum => Ok(vec![Item::Num(total("sum")?)]),
        AggFunc::Avg if seq.is_empty() => Ok(vec![]),
        AggFunc::Avg => Ok(vec![Item::Num(total("avg")? / seq.len() as f64)]),
        AggFunc::Min | AggFunc::Max => {
            if seq.is_empty() {
                return Ok(vec![]);
            }
            let want = if func == AggFunc::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let atoms: Vec<Atom<'_>> = seq.iter().map(|item| Atom::of(doc, item)).collect();
            let mut best = 0;
            for (i, atom) in atoms.iter().enumerate().skip(1) {
                if atom.compare(&atoms[best]) == Some(want) {
                    best = i;
                }
            }
            Ok(vec![seq[best].clone()])
        }
    }
}

/// One `order by` key, atomized once per tuple. [`SortKey::total_cmp`]
/// is the total order both backends sort with: the empty key first,
/// then numbers by value, then every other string by bytes. On a column
/// of only numbers or only non-numeric strings it agrees with
/// [`compare_items`].
#[derive(Debug, Clone, PartialEq)]
pub enum SortKey {
    /// The key expression produced no item.
    Empty,
    /// A number, a boolean (0 or 1), or a string that [`parse_finite`]
    /// reads as a number.
    Num(f64),
    /// Any other string.
    Str(String),
}

impl SortKey {
    /// The key of a key sequence's first item (`order by` looks at the
    /// first item only, as general comparison's order did).
    pub fn first(doc: &Document, seq: &[Item]) -> SortKey {
        let Some(item) = seq.first() else {
            return SortKey::Empty;
        };
        let atom = Atom::of(doc, item);
        match atom.num {
            Some(n) => SortKey::Num(n),
            None => SortKey::Str(atom.text.into_owned()),
        }
    }

    /// The total order: `Empty < Num < Str`; numbers by value, with
    /// NaN (which only a computed number can be) after every other
    /// number; strings by bytes.
    pub fn total_cmp(&self, other: &SortKey) -> Ordering {
        use Ordering::{Equal, Greater, Less};
        match (self, other) {
            (SortKey::Empty, SortKey::Empty) => Equal,
            (SortKey::Empty, _) => Less,
            (_, SortKey::Empty) => Greater,
            (SortKey::Num(a), SortKey::Num(b)) => a
                .partial_cmp(b)
                .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan())),
            (SortKey::Num(_), SortKey::Str(_)) => Less,
            (SortKey::Str(_), SortKey::Num(_)) => Greater,
            (SortKey::Str(a), SortKey::Str(b)) => a.cmp(b),
        }
    }
}

/// The effective boolean value of a sequence (XPath style): empty is
/// false; a single boolean is itself; a single number is `!= 0` and not
/// NaN; anything else (nodes, strings, longer sequences) is "non-empty".
pub fn effective_boolean(seq: &Sequence) -> bool {
    match seq.len() {
        0 => false,
        1 => match &seq[0] {
            Item::Bool(b) => *b,
            Item::Num(n) => *n != 0.0 && !n.is_nan(),
            Item::Str(s) => !s.is_empty(),
            Item::Node(_) | Item::Elem(_) => true,
        },
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb::Document;

    fn doc() -> Document {
        Document::parse_str("<r><a>10</a><b>text</b></r>").unwrap()
    }

    #[test]
    fn node_string_value() {
        let d = doc();
        let a = d.nodes_labeled("a")[0];
        assert_eq!(Item::Node(a).string_value(&d), "10");
    }

    #[test]
    fn numeric_coercion_from_node() {
        let d = doc();
        let a = d.nodes_labeled("a")[0];
        let b = d.nodes_labeled("b")[0];
        assert_eq!(Item::Node(a).numeric_value(&d), Some(10.0));
        assert_eq!(Item::Node(b).numeric_value(&d), None);
    }

    #[test]
    fn format_number_integers() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(3.5), "3.5");
        assert_eq!(format_number(-2.0), "-2");
    }

    #[test]
    fn compare_numeric_beats_lexicographic() {
        let d = doc();
        // "9" < "10" numerically, though "10" < "9" lexicographically.
        let o = compare_items(&d, &Item::Str("9".into()), &Item::Str("10".into()));
        assert_eq!(o, Some(Ordering::Less));
    }

    #[test]
    fn compare_strings() {
        let d = doc();
        let o = compare_items(&d, &Item::Str("apple".into()), &Item::Str("banana".into()));
        assert_eq!(o, Some(Ordering::Less));
    }

    #[test]
    fn a_nan_operand_satisfies_only_not_equal() {
        let d = doc();
        let nan = [Item::Num(f64::NAN)];
        let five = [Item::Num(5.0)];
        assert_eq!(compare_items(&d, &nan[0], &five[0]), None);
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert!(!general_compare(&d, op, &nan, &five), "{op}");
            assert!(!general_compare(&d, op, &nan, &nan), "{op}");
        }
        assert!(general_compare(&d, CmpOp::Ne, &nan, &five));
        assert!(general_compare(&d, CmpOp::Ne, &nan, &nan));
        // Against a non-numeric string NaN compares as its text.
        let word = [Item::Str("NaN".into())];
        assert!(general_compare(&d, CmpOp::Eq, &nan, &word));
    }

    #[test]
    fn min_and_max_keep_the_first_best_item() {
        let d = doc();
        let a = d.nodes_labeled("a")[0];
        let seq = vec![
            Item::Str("10.0".into()),
            Item::Node(a),
            Item::Num(2.0),
            Item::Str(" 2 ".into()),
        ];
        let min = aggregate(&d, AggFunc::Min, &seq).unwrap();
        assert_eq!(min, vec![Item::Num(2.0)]);
        let max = aggregate(&d, AggFunc::Max, &seq).unwrap();
        assert_eq!(max, vec![Item::Str("10.0".into())]);
        assert!(aggregate(&d, AggFunc::Max, &[]).unwrap().is_empty());
    }

    #[test]
    fn sum_over_a_word_is_a_type_error() {
        let d = doc();
        let b = d.nodes_labeled("b")[0];
        let err = aggregate(&d, AggFunc::Sum, &[Item::Num(1.0), Item::Node(b)]).unwrap_err();
        assert_eq!(err, "sum() over non-numeric value `text`");
    }

    #[test]
    fn effective_boolean_rules() {
        assert!(!effective_boolean(&vec![]));
        assert!(effective_boolean(&vec![Item::Bool(true)]));
        assert!(!effective_boolean(&vec![Item::Bool(false)]));
        assert!(!effective_boolean(&vec![Item::Num(0.0)]));
        assert!(effective_boolean(&vec![Item::Num(2.0)]));
        assert!(!effective_boolean(&vec![Item::Str(String::new())]));
        assert!(effective_boolean(&vec![Item::Str("x".into())]));
        assert!(effective_boolean(&vec![
            Item::Bool(false),
            Item::Bool(false)
        ]));
    }

    #[test]
    fn constructed_elem_string_value() {
        let d = doc();
        let e = Item::Elem(ConstructedElem {
            name: "result".into(),
            children: vec![Item::Str("a".into()), Item::Num(1.0)],
        });
        assert_eq!(e.string_value(&d), "a1");
    }
}
