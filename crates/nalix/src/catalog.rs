//! Database catalog: the label and value indexes validation consults.
//!
//! Built once per document, the catalog answers the two questions
//! NaLIX's validation asks of the database:
//!
//! 1. *Which element/attribute names exist?* — for term expansion of
//!    name tokens (paper Sec. 4, "Term Expansion").
//! 2. *Which names carry a given value?* — for implicit name-token
//!    resolution (Def. 11: "An implicit NT related to a VT is the
//!    name(s) of element or attribute with the value of VT in the
//!    database").
//!
//! ## Incremental maintenance
//!
//! The write path (`xmldb::PendingUpdate`) records every value it adds
//! or removes as a balanced [`xmldb::ValueOp`] delta;
//! [`Catalog::apply_update`] folds those deltas into the value index by
//! refcount instead of rescanning the document. Every structure is kept
//! *exactly* equal to what [`Catalog::build`] over the successor
//! document would produce (the update differential test asserts
//! equality): occurrence refcounts add and subtract symmetrically,
//! numeric per-label counts ride the same deltas, and a numeric range
//! is rescanned from the surviving index only when a deleted value sat
//! on its boundary.

use std::collections::HashMap;
use xmldb::{Document, NodeKind, UpdateStats};
use xquery::value::parse_finite;

/// Precomputed database metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    labels: Vec<String>,
    /// normalised value → label → occurrence refcount, for elements and
    /// attributes holding the value
    value_index: HashMap<String, HashMap<String, usize>>,
    /// label → (numeric occurrences, total occurrences); labels whose
    /// values are (almost) always numeric are the fallback for numeric
    /// VTs whose exact value is absent ("after 2030")
    numeric: HashMap<String, (usize, usize)>,
    /// per-label numeric value range, for range-aware fallback
    numeric_ranges: HashMap<String, (f64, f64)>,
}

fn norm(v: &str) -> String {
    v.trim().to_lowercase()
}

impl Catalog {
    /// Scan `doc` and build the catalog.
    pub fn build(doc: &Document) -> Self {
        let mut value_index: HashMap<String, HashMap<String, usize>> = HashMap::new();
        let mut numeric: HashMap<String, (usize, usize)> = HashMap::new();
        let mut ranges: HashMap<String, (f64, f64)> = HashMap::new();
        let mut record = |label: &str, value: &str| {
            record_one(&mut value_index, &mut numeric, &mut ranges, label, value);
        };

        // Walk the tree from the root rather than the arena slots: after
        // node-level updates the arena may hold detached (deleted) slots
        // whose values must not resurface in the catalog.
        let root = doc.root();
        for id in std::iter::once(root).chain(doc.descendants(root)) {
            let n = doc.node(id);
            match n.kind {
                NodeKind::Attribute => {
                    record(doc.label(id), n.value.unwrap_or(""));
                }
                NodeKind::Text => {
                    // Value is recorded under the owning element's label.
                    if let Some(p) = n.parent {
                        record(doc.label(p), n.value.unwrap_or(""));
                    }
                }
                NodeKind::Element => {}
            }
        }

        Catalog {
            labels: doc.labels().into_iter().map(str::to_owned).collect(),
            value_index,
            numeric,
            numeric_ranges: ranges,
        }
    }

    /// Fold one committed update batch's deltas into the catalog,
    /// leaving it equal to [`Catalog::build`] over the successor
    /// document — without the full scan. `doc` must be the successor
    /// the deltas in `stats` describe (its interner resolves the
    /// symbols the ops carry).
    pub fn apply_update(&mut self, doc: &Document, stats: &UpdateStats) {
        // The label list is interner-derived and the interner is
        // append-only, so re-deriving it is both cheap and identical to
        // a rebuild's.
        self.labels = doc.labels().into_iter().map(str::to_owned).collect();

        let mut stale_ranges: Vec<String> = Vec::new();
        for op in &stats.value_ops {
            let key = norm(&op.value);
            if key.is_empty() {
                continue;
            }
            let label = doc.resolve_label(op.label);
            if op.added {
                record_one(
                    &mut self.value_index,
                    &mut self.numeric,
                    &mut self.numeric_ranges,
                    label,
                    &op.value,
                );
                continue;
            }
            let parsed = parse_finite(&op.value);
            if let Some(entry) = self.value_index.get_mut(&key) {
                if let Some(c) = entry.get_mut(label) {
                    *c = c.saturating_sub(1);
                    if *c == 0 {
                        entry.remove(label);
                    }
                }
                if entry.is_empty() {
                    self.value_index.remove(&key);
                }
            }
            if let Some(c) = self.numeric.get_mut(label) {
                c.1 = c.1.saturating_sub(1);
                if parsed.is_some() {
                    c.0 = c.0.saturating_sub(1);
                }
                let numeric_left = c.0;
                if c.1 == 0 {
                    self.numeric.remove(label);
                    self.numeric_ranges.remove(label);
                } else if let Some(v) = parsed {
                    if numeric_left == 0 {
                        self.numeric_ranges.remove(label);
                    } else if self
                        .numeric_ranges
                        .get(label)
                        .is_some_and(|(lo, hi)| v <= *lo || v >= *hi)
                    {
                        // A boundary value left: the range may shrink,
                        // which a widen-only fold cannot express.
                        stale_ranges.push(label.to_owned());
                    }
                }
            }
        }

        // Rescan only the labels whose range boundary was deleted, from
        // the (already-patched) value index.
        stale_ranges.sort_unstable();
        stale_ranges.dedup();
        for label in stale_ranges {
            if self.numeric.get(&label).is_none_or(|c| c.0 == 0) {
                continue;
            }
            let mut range: Option<(f64, f64)> = None;
            for (key, labels) in &self.value_index {
                if !labels.contains_key(&label) {
                    continue;
                }
                if let Some(v) = parse_finite(key) {
                    range = Some(match range {
                        None => (v, v),
                        Some((lo, hi)) => (lo.min(v), hi.max(v)),
                    });
                }
            }
            match range {
                Some(r) => {
                    self.numeric_ranges.insert(label, r);
                }
                None => {
                    self.numeric_ranges.remove(&label);
                }
            }
        }
    }

    /// All element/attribute names in the database.
    pub fn labels(&self) -> Vec<&str> {
        self.labels.iter().map(String::as_str).collect()
    }

    /// Names of elements/attributes holding exactly `value`
    /// (case-insensitive), sorted for determinism.
    pub fn labels_for_value(&self, value: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .value_index
            .get(&norm(value))
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Names whose values are numeric — the implicit-NT fallback for a
    /// numeric value token that does not literally occur.
    pub fn numeric_labels(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .numeric
            .iter()
            .filter(|(_, (num, total))| *total > 0 && *num * 10 >= *total * 9)
            .map(|(l, _)| l.clone())
            .collect();
        v.sort();
        v
    }

    /// Range-aware fallback: numeric labels whose observed value range
    /// covers `value` (so "before 1993" resolves to `year`, whose values
    /// span 1992–2000, and not to `price`, whose values span 39–130).
    /// Falls back to all numeric labels when none covers the value.
    pub fn numeric_labels_for(&self, value: f64) -> Vec<String> {
        let v: Vec<String> = self
            .numeric_labels()
            .into_iter()
            .filter(|l| {
                self.numeric_ranges
                    .get(l)
                    .is_some_and(|(lo, hi)| *lo <= value && value <= *hi)
            })
            .collect();
        if v.is_empty() {
            return self.numeric_labels();
        }
        v
    }
}

/// Record one occurrence of `value` under `label` — shared by the full
/// scan and the incremental add path, so the two stay byte-identical.
fn record_one(
    value_index: &mut HashMap<String, HashMap<String, usize>>,
    numeric: &mut HashMap<String, (usize, usize)>,
    ranges: &mut HashMap<String, (f64, f64)>,
    label: &str,
    value: &str,
) {
    let key = norm(value);
    if key.is_empty() {
        return;
    }
    *value_index
        .entry(key)
        .or_default()
        .entry(label.to_owned())
        .or_insert(0) += 1;
    let c = numeric.entry(label.to_owned()).or_insert((0, 0));
    c.1 += 1;
    if let Some(v) = parse_finite(value) {
        c.0 += 1;
        ranges
            .entry(label.to_owned())
            .and_modify(|(lo, hi)| {
                *lo = lo.min(v);
                *hi = hi.max(v);
            })
            .or_insert((v, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldb::datasets::bib::bib;
    use xmldb::datasets::movies::movies;
    use xmldb::{Edit, NewNode};

    #[test]
    fn labels_enumerated() {
        let c = Catalog::build(&movies());
        let labels = c.labels();
        assert!(labels.contains(&"movie"));
        assert!(labels.contains(&"director"));
        assert!(!labels.contains(&"#text"));
    }

    #[test]
    fn value_lookup_finds_director() {
        let c = Catalog::build(&movies());
        assert_eq!(c.labels_for_value("Ron Howard"), vec!["director"]);
        assert_eq!(c.labels_for_value("ron howard"), vec!["director"]);
    }

    #[test]
    fn value_lookup_multiple_labels() {
        let d =
            xmldb::Document::parse_str("<r><a>shared</a><b>shared</b><a>other</a></r>").unwrap();
        let c = Catalog::build(&d);
        assert_eq!(c.labels_for_value("shared"), vec!["a", "b"]);
    }

    #[test]
    fn missing_value_is_empty() {
        let c = Catalog::build(&movies());
        assert!(c.labels_for_value("Stanley Kubrick").is_empty());
    }

    #[test]
    fn numeric_labels_detected() {
        let c = Catalog::build(&bib());
        let numeric = c.numeric_labels();
        assert!(numeric.contains(&"price".to_owned()), "{numeric:?}");
        assert!(numeric.contains(&"year".to_owned()), "{numeric:?}");
        assert!(!numeric.contains(&"title".to_owned()));
    }

    #[test]
    fn attribute_values_indexed() {
        let c = Catalog::build(&bib());
        assert_eq!(c.labels_for_value("1994"), vec!["year"]);
    }

    /// Apply an edit batch both ways — incremental fold vs full rebuild
    /// over the successor — and require exact catalog equality.
    fn assert_patch_matches_rebuild(doc: &Document, edits: &[Edit]) {
        let mut catalog = Catalog::build(doc);
        let mut up = doc.begin_update().unwrap();
        for e in edits {
            up.apply(e).unwrap();
        }
        let (next, stats) = up.commit();
        assert_eq!(
            stats.strategy,
            xmldb::CommitStrategy::Patch,
            "test batches must stay on the patch path"
        );
        catalog.apply_update(&next, &stats);
        assert_eq!(catalog, Catalog::build(&next));
    }

    #[test]
    fn patched_catalog_matches_rebuild_after_insert() {
        let doc = bib();
        let book = doc.nodes_labeled("book")[0];
        assert_patch_matches_rebuild(
            &doc,
            &[
                Edit::InsertChild {
                    parent: book,
                    node: NewNode::Leaf {
                        label: "note".into(),
                        text: "second printing".into(),
                    },
                },
                Edit::InsertChild {
                    parent: book,
                    node: NewNode::Attribute {
                        name: "lang".into(),
                        value: "en".into(),
                    },
                },
            ],
        );
    }

    #[test]
    fn patched_catalog_matches_rebuild_after_delete() {
        // A small deletion (one price leaf + one author) stays under the
        // patch threshold; whole-book deletes would trip the rebuild.
        let doc = bib();
        let price = doc.nodes_labeled("price")[1];
        let author = doc.nodes_labeled("author")[0];
        assert_patch_matches_rebuild(
            &doc,
            &[
                Edit::DeleteSubtree { target: price },
                Edit::DeleteSubtree { target: author },
            ],
        );
    }

    #[test]
    fn patched_catalog_matches_rebuild_after_replace_and_rename() {
        let doc = bib();
        let title = doc.nodes_labeled("title")[1];
        let text = doc.first_child(title).unwrap();
        assert_patch_matches_rebuild(
            &doc,
            &[
                Edit::ReplaceValue {
                    target: text,
                    value: "A Fresh Title".into(),
                },
                Edit::RenameLabel {
                    target: title,
                    label: "heading".into(),
                },
            ],
        );
    }

    #[test]
    fn deleting_a_range_boundary_shrinks_the_range() {
        // years 1992/1994/2000: deleting the 2000 book must shrink the
        // year range so range-aware fallback stays exact.
        let doc = bib();
        let boundary_year = doc
            .nodes_labeled("year")
            .iter()
            .copied()
            .find(|&y| doc.string_value(y) == "2000")
            .expect("a year node holding 2000");
        let mut catalog = Catalog::build(&doc);
        let mut up = doc.begin_update().unwrap();
        up.apply(&Edit::DeleteSubtree {
            target: boundary_year,
        })
        .unwrap();
        let (next, stats) = up.commit();
        catalog.apply_update(&next, &stats);
        let rebuilt = Catalog::build(&next);
        assert_eq!(catalog, rebuilt);
        // bib's remaining years are 1992/1994/1999: the upper bound must
        // have shrunk below the deleted 2000.
        let (lo, hi) = catalog.numeric_ranges["year"];
        assert_eq!((lo, hi), (1992.0, 1999.0));
    }
}
