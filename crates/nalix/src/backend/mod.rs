//! Translation backends: one validated parse tree, two target query
//! languages.
//!
//! NaLIX's pipeline is backend-neutral up to and including the shared
//! planner ([`crate::translate`]): parse → classify → validate →
//! translate all operate on the sentence and the catalog alone. A
//! *backend* decides what the plan compiles to and how it runs; the
//! pipeline picks one by matching on [`BackendKind`]:
//!
//! - [`BackendKind::Xquery`] — the paper's target: the emitted
//!   Schema-Free XQuery expression, evaluated by the [`xquery`] engine
//!   over the node arena.
//! - [`BackendKind::Sql`] — the plan lowered to the [`sqlq`] SQL subset
//!   ([`sql::lower`]), executed over the [`relstore`] view of the same
//!   document as pre-rank interval tables.
//!
//! Both backends normalize their results into one [`AnswerSet`], so
//! answer-set equivalence is directly assertable — the CI equivalence
//! suite runs every user-study phrasing through both and compares (see
//! `docs/BACKENDS.md` for the methodology).

pub mod sql;

/// Which translation backend answers a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Schema-Free XQuery over the node arena (the paper's target).
    #[default]
    Xquery,
    /// The SQL subset over the relational view of the document.
    Sql,
}

impl BackendKind {
    /// Every backend, in default-first order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Xquery, BackendKind::Sql];

    /// The backend's wire name (the `backend` knob of `POST /query`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Xquery => "xquery",
            BackendKind::Sql => "sql",
        }
    }

    /// Parse a wire name (`"xquery"` / `"sql"`, ASCII-case-blind).
    /// `None` is the server's typed `backend.unknown` error.
    pub fn parse(name: &str) -> Option<BackendKind> {
        BackendKind::ALL
            .into_iter()
            .find(|k| name.eq_ignore_ascii_case(k.name()))
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A backend's normalized answer: the flat string values, plus whether
/// the query imposed an explicit order.
///
/// Equivalence ([`AnswerSet::equivalent`]) is what the dual-backend CI
/// suite asserts: exact sequence equality when the question ordered its
/// results ("… sorted by year"), multiset equality otherwise — an
/// unordered FLWOR's tuple order is document order under both backends,
/// but only the multiset is semantically promised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerSet {
    /// The flat string values, in the backend's emission order.
    pub values: Vec<String>,
    /// True when the plan carried an explicit `order by` / `ORDER BY`
    /// from the question (not just source-order tiebreakers).
    pub ordered: bool,
}

impl AnswerSet {
    /// Build from a backend's output values.
    pub fn new(values: Vec<String>, ordered: bool) -> AnswerSet {
        AnswerSet { values, ordered }
    }

    /// Answer-set equivalence: exact when either side is explicitly
    /// ordered, multiset otherwise.
    pub fn equivalent(&self, other: &AnswerSet) -> bool {
        if self.ordered || other.ordered {
            return self.values == other.values;
        }
        let mut a = self.values.clone();
        let mut b = other.values.clone();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
        }
        assert_eq!(BackendKind::parse("SQL"), Some(BackendKind::Sql));
        assert_eq!(BackendKind::parse("xQuery"), Some(BackendKind::Xquery));
        assert_eq!(BackendKind::parse("postgres"), None);
        assert_eq!(BackendKind::default(), BackendKind::Xquery);
    }

    #[test]
    fn answer_set_equivalence_modes() {
        let a = AnswerSet::new(vec!["x".into(), "y".into()], false);
        let b = AnswerSet::new(vec!["y".into(), "x".into()], false);
        assert!(a.equivalent(&b), "unordered compares as multiset");
        let a = AnswerSet::new(vec!["x".into(), "y".into()], true);
        let b = AnswerSet::new(vec!["y".into(), "x".into()], true);
        assert!(!a.equivalent(&b), "ordered compares exactly");
        let b = AnswerSet::new(vec!["x".into(), "y".into()], true);
        assert!(a.equivalent(&b));
        // Multiplicity matters even unordered.
        let a = AnswerSet::new(vec!["x".into(), "x".into()], false);
        let b = AnswerSet::new(vec!["x".into()], false);
        assert!(!a.equivalent(&b));
    }
}
