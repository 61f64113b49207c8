//! Runtime values: items, sequences, atomization and comparison.

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
    pub fn atom_value<'a>(&'a self, doc: &'a Document) -> std::borrow::Cow<'a, str> {
        use std::borrow::Cow;
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

    /// Atomized numeric value, when the item looks like a number (see
    /// [`parse_finite`]).
    pub fn numeric_value(&self, doc: &Document) -> Option<f64> {
        match self {
            Item::Num(n) => Some(*n),
            Item::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => parse_finite(&self.atom_value(doc)),
        }
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
/// author called "Nan"), and as NaN they would compare equal to every
/// number.
pub fn parse_finite(s: &str) -> Option<f64> {
    s.trim().parse::<f64>().ok().filter(|n| n.is_finite())
}

/// Compare two atomized items: numerically when both sides are numeric,
/// lexicographically otherwise. This is general comparison's order; it
/// is not transitive over a mix of numbers and other strings (`"2" <
/// "10"` as numbers, `"10" < "1a" < "2"` as strings), so `order by`
/// sorts with [`SortKey`] instead.
pub fn compare_items(doc: &Document, a: &Item, b: &Item) -> std::cmp::Ordering {
    // Atomize each side once, borrowed where possible, and derive the
    // numeric view from the same string — the hot path of predicate
    // scans performs zero allocations per comparison.
    let sa = a.atom_value(doc);
    let sb = b.atom_value(doc);
    let num = |item: &Item, s: &str| -> Option<f64> {
        match item {
            Item::Num(n) => Some(*n),
            Item::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => parse_finite(s),
        }
    };
    match (num(a, &sa), num(b, &sb)) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
        _ => sa.cmp(&sb),
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
    /// The key of an atomized string.
    pub fn text(s: String) -> SortKey {
        match parse_finite(&s) {
            Some(n) => SortKey::Num(n),
            None => SortKey::Str(s),
        }
    }

    /// The key of a key sequence's first item (`order by` looks at the
    /// first item only, as general comparison's order did).
    pub fn first(doc: &Document, seq: &[Item]) -> SortKey {
        match seq.first() {
            None => SortKey::Empty,
            Some(Item::Num(n)) => SortKey::Num(*n),
            Some(Item::Bool(b)) => SortKey::Num(if *b { 1.0 } else { 0.0 }),
            Some(item) => SortKey::text(item.string_value(doc)),
        }
    }

    /// The total order: `Empty < Num < Str`; numbers by value, with
    /// NaN (which only a computed number can be) after every other
    /// number; strings by bytes.
    pub fn total_cmp(&self, other: &SortKey) -> std::cmp::Ordering {
        use std::cmp::Ordering::{Equal, Greater, Less};
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
        assert_eq!(o, std::cmp::Ordering::Less);
    }

    #[test]
    fn compare_strings() {
        let d = doc();
        let o = compare_items(&d, &Item::Str("apple".into()), &Item::Str("banana".into()));
        assert_eq!(o, std::cmp::Ordering::Less);
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
