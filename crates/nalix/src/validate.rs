//! Parse-tree validation (paper Sec. 4): vocabulary checks, grammar
//! checks against Table 6, term expansion, implicit name-token
//! insertion (Def. 11), and warning generation.

use crate::catalog::Catalog;
use crate::feedback::{Feedback, FeedbackKind, Severity};
use crate::thesaurus;
use crate::token::{CNode, ClassifiedTree, MarkerType, NodeClass, TokenType};
use crate::vocab;
use nlparser::DepRel;
use xquery::value::parse_finite;

/// The result of validating a classified parse tree.
#[derive(Debug, Clone)]
pub struct Validation {
    /// The (possibly extended) tree: implicit NTs inserted, expansions
    /// filled in.
    pub tree: ClassifiedTree,
    /// All feedback items, errors and warnings.
    pub feedback: Vec<Feedback>,
}

impl Validation {
    /// True when no error-severity feedback was produced — the tree may
    /// be translated.
    pub fn is_valid(&self) -> bool {
        !self.feedback.iter().any(|f| f.severity == Severity::Error)
    }

    /// Only the errors.
    pub fn errors(&self) -> Vec<&Feedback> {
        self.feedback
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect()
    }

    /// Only the warnings.
    pub fn warnings(&self) -> Vec<&Feedback> {
        self.feedback
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .collect()
    }
}

/// Validate `tree` against `catalog`, producing the extended tree and
/// feedback.
pub fn validate(mut tree: ClassifiedTree, catalog: &Catalog) -> Validation {
    let mut feedback = Vec::new();

    vocabulary_checks(&tree, &mut feedback);
    grammar_checks(&tree, &mut feedback);
    term_expansion(&mut tree, catalog, &mut feedback);
    implicit_name_tokens(&mut tree, catalog, &mut feedback);

    Validation { tree, feedback }
}

/// Unknown terms, dangling material and pronouns.
fn vocabulary_checks(tree: &ClassifiedTree, feedback: &mut Vec<Feedback>) {
    for r in tree.refs() {
        let n = tree.node(r);
        match n.class {
            NodeClass::Unknown => {
                feedback.push(Feedback::error(FeedbackKind::UnknownTerm {
                    term: n.words.clone(),
                    suggestion: vocab::suggestion_for(&n.lemma).map(str::to_owned),
                }));
            }
            NodeClass::Marker(MarkerType::Pm) => {
                feedback.push(Feedback::warning(FeedbackKind::PronounWarning {
                    pronoun: n.words.clone(),
                }));
            }
            _ => {}
        }
        // Content tokens the parser could not integrate.
        if n.rel == DepRel::Dangling
            && matches!(
                n.class,
                NodeClass::Token(TokenType::Nt) | NodeClass::Token(TokenType::Vt)
            )
        {
            feedback.push(Feedback::error(FeedbackKind::GrammarViolation {
                detail: format!(
                    "the system could not relate \"{}\" to the rest of the query; \
                     please rephrase",
                    n.words
                ),
            }));
        }
    }
}

/// Structural checks approximating the grammar of Table 6.
fn grammar_checks(tree: &ClassifiedTree, feedback: &mut Vec<Feedback>) {
    // Rule 1–2: the root must be a command token.
    let root = tree.node(tree.root);
    if !matches!(root.class, NodeClass::Token(TokenType::Cmt)) {
        feedback.push(Feedback::error(FeedbackKind::GrammarViolation {
            detail: format!(
                "a query must begin with a command such as \"Return\" or \"Find\" \
                 (found \"{}\")",
                root.words
            ),
        }));
        return;
    }
    // RETURN → CMT + (RNP|GVT|PREDICATE): the command needs something to
    // return.
    let has_returnable = root.children.iter().any(|&c| {
        matches!(
            tree.node(c).class,
            NodeClass::Token(TokenType::Nt | TokenType::Vt | TokenType::Ft(_) | TokenType::Ot(_))
        )
    });
    if !has_returnable {
        feedback.push(Feedback::error(FeedbackKind::GrammarViolation {
            detail: "the command does not say what to return".into(),
        }));
    }

    for r in tree.refs() {
        let n = tree.node(r);
        match n.class {
            NodeClass::Token(TokenType::Ft(f)) => {
                // RNP → FT + RNP: a function needs exactly one argument.
                let args = n
                    .children
                    .iter()
                    .filter(|&&c| {
                        matches!(
                            tree.node(c).class,
                            NodeClass::Token(TokenType::Nt | TokenType::Ft(_))
                        )
                    })
                    .count();
                // Superlative adjectives ("lowest") attach *under* their
                // NT, so zero children is fine when the parent is an NT.
                let parent_is_nt = n
                    .parent
                    .map(|p| tree.node(p).class.is_nt())
                    .unwrap_or(false);
                if args == 0 && !parent_is_nt {
                    feedback.push(Feedback::error(FeedbackKind::GrammarViolation {
                        detail: format!(
                            "the function \"{}\" ({f}) must apply to some item in the query",
                            n.words
                        ),
                    }));
                } else if args > 1 {
                    feedback.push(Feedback::error(FeedbackKind::GrammarViolation {
                        detail: format!(
                            "the function \"{}\" applies to more than one item; \
                             please split the query",
                            n.words
                        ),
                    }));
                }
            }
            NodeClass::Token(TokenType::Ot(_)) => {
                // PREDICATE: an operator needs two operands — its token
                // children, plus its parent when the parent is a token.
                let child_operands = n
                    .children
                    .iter()
                    .filter(|&&c| {
                        matches!(
                            tree.node(c).class,
                            NodeClass::Token(TokenType::Nt | TokenType::Vt | TokenType::Ft(_))
                        )
                    })
                    .count();
                let parent_operand = tree
                    .parent_skipping_markers(r)
                    .map(|p| {
                        matches!(
                            tree.node(p).class,
                            NodeClass::Token(TokenType::Nt | TokenType::Vt | TokenType::Ft(_))
                        )
                    })
                    .unwrap_or(false);
                // A clause operator ("… is greater than …") carries its
                // own subject; the node it hangs under is the clause
                // site, not an operand.
                let has_subj = n
                    .children
                    .iter()
                    .any(|&c| tree.node(c).rel == nlparser::DepRel::Subj);
                let effective = if has_subj {
                    child_operands
                } else {
                    child_operands + usize::from(parent_operand)
                };
                if effective < 2 {
                    feedback.push(Feedback::error(FeedbackKind::IncompleteComparison {
                        operator: n.words.clone(),
                    }));
                }
            }
            NodeClass::Token(TokenType::Vt) => {
                // Values are leaves (markers aside) — except for
                // disjunctive value chains (`GVT → GVT ∧ GVT`, Table 6
                // line 11): "… is \"A\" or \"B\"".
                let bad_children = n
                    .children
                    .iter()
                    .filter(|&&c| {
                        let cn = tree.node(c);
                        !(cn.class.is_marker()
                            || (cn.class.is_vt() && cn.rel == nlparser::DepRel::ConjOr))
                    })
                    .count();
                if bad_children > 0 {
                    feedback.push(Feedback::error(FeedbackKind::GrammarViolation {
                        detail: format!(
                            "the value \"{}\" cannot have further qualifications",
                            n.words
                        ),
                    }));
                }
            }
            NodeClass::Token(TokenType::Neg) => {
                // NEG must negate an operator (GOT → NEG + OT).
                let parent_ot = n
                    .parent
                    .map(|p| tree.node(p).class.ot().is_some())
                    .unwrap_or(false);
                if !parent_ot {
                    feedback.push(Feedback::error(FeedbackKind::GrammarViolation {
                        detail: "\"not\" must negate a comparison (for example \
                                 \"is not\")"
                            .into(),
                    }));
                }
            }
            _ => {}
        }
    }
}

/// Resolve every NT against the database labels (exact, then thesaurus),
/// recording the expansion or reporting `NoSuchName`.
fn term_expansion(tree: &mut ClassifiedTree, catalog: &Catalog, feedback: &mut Vec<Feedback>) {
    let labels = catalog.labels();
    for r in 0..tree.nodes.len() {
        if !tree.nodes[r].class.is_nt() || tree.nodes[r].implicit {
            continue;
        }
        let lemma = tree.nodes[r].lemma.clone();
        let matches: Vec<String> = thesaurus::resolve(&lemma, &labels)
            .into_iter()
            .map(str::to_owned)
            .collect();
        match matches.len() {
            0 => {
                // Near-miss candidates: thesaurus expansions that are
                // *words*, shown to guide rephrasing.
                let candidates: Vec<String> = thesaurus::expansions(&lemma)
                    .into_iter()
                    .filter(|w| w != &lemma)
                    .collect();
                feedback.push(Feedback::error(FeedbackKind::NoSuchName {
                    term: tree.nodes[r].words.clone(),
                    candidates,
                }));
            }
            1 => tree.nodes[r].expansion = matches,
            _ => {
                feedback.push(Feedback::warning(FeedbackKind::AmbiguousName {
                    term: tree.nodes[r].words.clone(),
                    matches: matches.clone(),
                }));
                tree.nodes[r].expansion = matches;
            }
        }
    }
}

/// Implicit name-token insertion (paper Def. 11).
///
/// "For any GVT, if it is not attached by a CMT, nor adjacent to a RNP,
/// nor attached by a GOT that is attached by a RNP or GVT, then each VT
/// within the GVT is said to be related to an implicit NT. An implicit
/// NT related to a VT is the name(s) of element or attribute with the
/// value of VT in the database."
fn implicit_name_tokens(
    tree: &mut ClassifiedTree,
    catalog: &Catalog,
    feedback: &mut Vec<Feedback>,
) {
    let vts: Vec<usize> = tree
        .refs()
        .filter(|&r| tree.node(r).class.is_vt())
        .collect();
    for vt in vts {
        let Some(parent) = tree.node(vt).parent else {
            continue;
        };
        let pclass = tree.node(parent).class;
        // A disjunct in a value chain ("… \"A\" or \"B\"") shares the
        // head value's implicit NT.
        if pclass.is_vt() {
            continue;
        }
        // Exclusion 1: attached by a CMT ("Return \"Gone with the Wind\"").
        if matches!(pclass, NodeClass::Token(TokenType::Cmt)) {
            continue;
        }
        // Exclusion 2: adjacent to an RNP — apposition or any direct NT
        // parent ("director Ron Howard").
        if pclass.is_nt() {
            continue;
        }
        // Exclusion 3: attached by a GOT that is attached by an RNP or
        // GVT ("the director … is Ron Howard"). The GOT's own attachment
        // is its *direct* parent: an intervening connection marker
        // ("published … after 1991") means the operator is attached to
        // the event, not to a name token, so the implicit NT is needed.
        if pclass.ot().is_some() {
            if let Some(gp) = tree.node(parent).parent {
                let gclass = tree.node(gp).class;
                if gclass.is_nt()
                    || gclass.is_vt()
                    || matches!(gclass, NodeClass::Token(TokenType::Ft(_)))
                {
                    continue;
                }
            }
        }
        // Insert an implicit NT: the element/attribute name(s) carrying
        // this value (or, for a disjunctive chain, any of its values).
        let mut values = vec![tree.node(vt).words.clone()];
        let mut cursor = vt;
        loop {
            let next = tree.node(cursor).children.iter().copied().find(|&c| {
                tree.node(c).class.is_vt() && tree.node(c).rel == nlparser::DepRel::ConjOr
            });
            match next {
                Some(c) => {
                    values.push(tree.node(c).words.clone());
                    cursor = c;
                }
                None => break,
            }
        }
        let mut names: Vec<String> = Vec::new();
        for value in &values {
            for n in catalog.labels_for_value(value) {
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        if names.is_empty() {
            if let Some(parsed) = parse_finite(&values[0]) {
                if values.iter().all(|v| parse_finite(v).is_some()) {
                    names = catalog.numeric_labels_for(parsed);
                }
            }
        }
        if names.is_empty() {
            feedback.push(Feedback::error(FeedbackKind::NoSuchValue {
                value: values.join("\" or \""),
            }));
            continue;
        }
        let order = tree.node(vt).order;
        let rel = tree.node(vt).rel;
        let node = CNode {
            words: format!("[{}]", names.join("|")),
            lemma: names[0].clone(),
            class: NodeClass::Token(TokenType::Nt),
            parent: None,     // set by insert_above
            children: vec![], // set by insert_above
            rel,
            order,
            implicit: true,
            expansion: names,
        };
        tree.insert_above(vt, node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use nlparser::parse;
    use xmldb::datasets::dblp::{generate, DblpConfig};
    use xmldb::datasets::movies::movies;

    fn validate_on_movies(q: &str) -> Validation {
        let doc = movies();
        let catalog = Catalog::build(&doc);
        validate(classify(&parse(q).unwrap()), &catalog)
    }

    fn validate_on_dblp(q: &str) -> Validation {
        let doc = generate(&DblpConfig::small());
        let catalog = Catalog::build(&doc);
        validate(classify(&parse(q).unwrap()), &catalog)
    }

    #[test]
    fn query2_is_valid_with_implicit_nt() {
        // Paper Fig. 2: node 11, the implicit director above "Ron Howard".
        let v = validate_on_movies(
            "Return every director, where the number of movies directed by the \
             director is the same as the number of movies directed by Ron Howard.",
        );
        assert!(v.is_valid(), "{:?}", v.feedback);
        let implicit: Vec<_> = v.tree.refs().filter(|&r| v.tree.node(r).implicit).collect();
        assert_eq!(implicit.len(), 1);
        assert_eq!(v.tree.node(implicit[0]).lemma, "director");
        // the implicit NT sits between the CM and the VT
        let vt = v
            .tree
            .refs()
            .find(|&r| v.tree.node(r).words == "Ron Howard")
            .unwrap();
        assert_eq!(v.tree.node(vt).parent, Some(implicit[0]));
    }

    #[test]
    fn query1_unknown_as_is_rejected_with_suggestion() {
        // Paper Fig. 10: Query 1 is invalid; the error message suggests
        // "the same as".
        let v = validate_on_movies(
            "Return every director who has directed as many movies as has Ron Howard.",
        );
        assert!(!v.is_valid());
        let has_suggestion = v.feedback.iter().any(|f| {
            matches!(
                &f.kind,
                FeedbackKind::UnknownTerm { term, suggestion: Some(s) }
                    if term == "as" && s == "the same as"
            )
        });
        assert!(has_suggestion, "{:?}", v.feedback);
    }

    #[test]
    fn copula_predicate_vt_gets_no_implicit_nt() {
        // "the director of each movie is Ron Howard" — the VT is
        // attached by an OT that is attached by an RNP: excluded.
        let v = validate_on_movies(
            "Return the total number of movies, where the director of each movie \
             is Ron Howard.",
        );
        assert!(v.is_valid(), "{:?}", v.feedback);
        assert!(v.tree.refs().all(|r| !v.tree.node(r).implicit));
    }

    #[test]
    fn apposition_vt_gets_no_implicit_nt() {
        let v = validate_on_movies("Find all the movies directed by director Ron Howard.");
        assert!(v.is_valid(), "{:?}", v.feedback);
        assert!(v.tree.refs().all(|r| !v.tree.node(r).implicit));
    }

    #[test]
    fn participle_vt_gets_implicit_nt() {
        let v = validate_on_movies("Find all the movies directed by Ron Howard.");
        assert!(v.is_valid(), "{:?}", v.feedback);
        let implicit: Vec<_> = v.tree.refs().filter(|&r| v.tree.node(r).implicit).collect();
        assert_eq!(implicit.len(), 1);
        assert_eq!(v.tree.node(implicit[0]).lemma, "director");
    }

    #[test]
    fn numeric_vt_uses_numeric_fallback() {
        // No element holds exactly "1991" in the movies data; against
        // DBLP "1991" may or may not literally occur — both paths must
        // resolve to year-like labels.
        let v = validate_on_dblp(
            "Return the title of every book published by Addison-Wesley after 1991.",
        );
        assert!(v.is_valid(), "{:?}", v.feedback);
        // Two implicit NTs: [publisher] above "Addison-Wesley" and
        // [year] above "1991".
        let implicit: Vec<_> = v.tree.refs().filter(|&r| v.tree.node(r).implicit).collect();
        assert_eq!(implicit.len(), 2);
        assert!(
            implicit
                .iter()
                .any(|&i| v.tree.node(i).expansion.contains(&"year".to_owned())),
            "{:?}",
            implicit
                .iter()
                .map(|&i| v.tree.node(i).expansion.clone())
                .collect::<Vec<_>>()
        );
        assert!(implicit.iter().any(|&i| v
            .tree
            .node(i)
            .expansion
            .contains(&"publisher".to_owned())));
    }

    #[test]
    fn unknown_value_is_an_error() {
        let v = validate_on_movies("Find all the movies directed by Stanley Kubrick.");
        assert!(!v.is_valid());
        assert!(v.feedback.iter().any(
            |f| matches!(&f.kind, FeedbackKind::NoSuchValue { value } if value == "Stanley Kubrick")
        ));
    }

    #[test]
    fn unknown_name_is_an_error_with_candidates() {
        let v = validate_on_movies("Return the spaceship of each movie.");
        assert!(!v.is_valid());
        assert!(v.feedback.iter().any(
            |f| matches!(&f.kind, FeedbackKind::NoSuchName { term, .. } if term == "spaceship")
        ));
    }

    #[test]
    fn thesaurus_resolves_film_to_movie() {
        let v = validate_on_movies("Return the director of each film.");
        assert!(v.is_valid(), "{:?}", v.feedback);
        let film = v
            .tree
            .refs()
            .find(|&r| v.tree.node(r).lemma == "film")
            .unwrap();
        assert_eq!(v.tree.node(film).expansion, vec!["movie".to_owned()]);
    }

    #[test]
    fn pronoun_warns_but_does_not_reject() {
        let v = validate_on_dblp("Return all books and their titles.");
        assert!(v.is_valid(), "{:?}", v.feedback);
        assert!(v
            .feedback
            .iter()
            .any(|f| matches!(&f.kind, FeedbackKind::PronounWarning { .. })));
    }

    #[test]
    fn incomplete_comparison_is_reported() {
        let v = validate_on_dblp("Return every book, where the year of the book is greater than.");
        assert!(!v.is_valid());
        assert!(
            v.feedback
                .iter()
                .any(|f| matches!(&f.kind, FeedbackKind::IncompleteComparison { .. })),
            "{:?}",
            v.feedback
        );
    }

    #[test]
    fn ambiguous_name_warns_and_expands() {
        // "name" occurs in DBLP (editor/name); "title" also matches via
        // thesaurus only when no exact match exists — here the exact
        // match wins, single name, no warning.
        let v = validate_on_dblp("Return the name of the editor of each book.");
        assert!(v.is_valid(), "{:?}", v.feedback);
    }

    #[test]
    fn valid_queries_have_no_errors() {
        for q in [
            "Return the title and the authors of every book.",
            "Return the title of every book, sorted by title.",
            "Find all titles that contain \"XML\".",
            "Return the lowest year for each title.",
        ] {
            let v = validate_on_dblp(q);
            assert!(v.is_valid(), "{q}: {:?}", v.feedback);
        }
    }
}
