//! Conversational sessions: follow-up questions resolved against the
//! previous answer.
//!
//! The paper's Sec. 4 feedback loop already treats natural language
//! querying as a dialogue — the user reformulates until the system
//! understands. This module closes the other half of that loop: once a
//! question *has* been answered, the next question may refer back to
//! the answer ("of those, which were published after 2000?", "what
//! about by Suciu?") instead of repeating itself. Classic NLIDBs
//! punt on exactly this; both surveys the repository tracks (Affolter
//! et al. 2019; the NLI4DB survey) name contextual follow-ups as the
//! axis where they fall short.
//!
//! Two follow-up forms are supported, detected lexically by
//! [`detect_follow_up`] before any parsing happens:
//!
//! * **Refinement** (anaphora): the question narrows the previous
//!   answer set through a demonstrative or pronoun — "of those", "of
//!   these", "them", "they". The anaphor and its wh-scaffolding are
//!   stripped, the remaining constraint fragment is re-parsed in a
//!   synthetic command sentence built around the previous question's
//!   anchor noun, and the resulting constraint subtrees are *grafted*
//!   onto the previous turn's classified parse tree. "Of those, which
//!   were published after 2000?" after "List all the books written by
//!   Stevens." yields the same tree as "List all the books written by
//!   Stevens published after 2000." would have.
//! * **Ellipsis**: "what about by Suciu?" keeps the shape of the
//!   previous question and swaps one constraint. The fragment is
//!   re-parsed the same way; its value token is then substituted for
//!   the previous turn's value token with the same database labels
//!   (resolved through the catalog, exactly like implicit name-token
//!   insertion in Def. 11). Constraints that match nothing fall back
//!   to being grafted as refinements.
//!
//! Resolution is deliberately conservative: it never guesses silently.
//! Every resolved follow-up carries a
//! [`FeedbackKind::AnaphoraResolved`] warning naming the phrase and
//! the question it was resolved against — the sessions counterpart of
//! the paper's pronoun warning (`validate.rs` warns that pronouns "may
//! be misunderstood"; here the system resolved one and says how). A
//! follow-up with no context to resolve against is a typed error
//! ([`QueryError::MissingContext`] / [`QueryError::ExpiredContext`]),
//! never a silent mis-answer.
//!
//! [`Session`] is the per-conversation state (pinned document identity
//! plus the last [`PriorTurn`]); [`SessionStore`] bounds many of them
//! with an LRU capacity and a TTL so a server can hold sessions for
//! millions of users without unbounded memory. Sessions pin the
//! document by *name and generation*, never by reference — a hot
//! reload or eviction can therefore never be kept alive by an idle
//! conversation, and a stale session is detected by a generation
//! mismatch and retired with a typed error.

use crate::catalog::Catalog;
use crate::classify;
use crate::error::QueryError;
use crate::feedback::{Feedback, FeedbackKind};
use crate::token::{ClassifiedTree, TokenType};
use crate::validate;
use crate::{Answer, Nalix, Outcome};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xquery::value::parse_finite;
use xquery::EvalBudget;

/// Default [`SessionStore`] capacity (live sessions, LRU-evicted).
pub const DEFAULT_SESSION_CAPACITY: usize = 1024;

/// Default [`SessionStore`] TTL (idle time before a session expires).
pub const DEFAULT_SESSION_TTL: Duration = Duration::from_secs(30 * 60);

/// One completed turn of a conversation: what was asked, the parse
/// tree it resolved to, and what came back.
#[derive(Debug, Clone)]
pub struct PriorTurn {
    /// The question as the user asked it (follow-ups keep their
    /// anaphoric surface form; the tree holds the resolution).
    pub question: String,
    /// The classified, validated parse tree of the *resolved* question
    /// — the antecedent the next follow-up grafts onto or substitutes
    /// into.
    pub tree: ClassifiedTree,
    /// The flat answer values of this turn (the "previous answer set"
    /// an anaphor refers to).
    pub values: Vec<String>,
}

/// Per-conversation state: which document snapshot the dialogue is
/// pinned to, and the last completed turn.
///
/// The document is pinned by **name and generation**, not by a shared
/// reference: a `Session` can never keep a retired snapshot alive, and
/// a hot reload (which bumps the store's generation counter) is
/// detected as a mismatch and surfaces as
/// [`QueryError::ExpiredContext`] rather than a silently wrong answer
/// computed against data that no longer exists.
#[derive(Debug, Clone)]
pub struct Session {
    /// Name of the document the conversation is about.
    pub doc: String,
    /// Store generation of that document at the last completed turn.
    pub generation: u64,
    /// Number of completed turns.
    pub turns: u64,
    /// The last completed turn, if any.
    pub prior: Option<PriorTurn>,
}

impl Session {
    /// A fresh session pinned to `doc` at `generation`, with no turns.
    ///
    /// ```
    /// let s = nalix::Session::new("bib", 1);
    /// assert_eq!(s.turns, 0);
    /// assert!(s.prior.is_none());
    /// ```
    pub fn new(doc: impl Into<String>, generation: u64) -> Self {
        Session {
            doc: doc.into(),
            generation,
            turns: 0,
            prior: None,
        }
    }

    /// Record a completed turn: bumps the turn counter and replaces the
    /// prior-turn context the next follow-up resolves against.
    pub fn record_turn(&mut self, turn: PriorTurn) {
        self.turns += 1;
        self.prior = Some(turn);
    }
}

/// How a question refers back to the previous turn (see
/// [`detect_follow_up`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FollowUp {
    /// The question narrows the previous answer set through an anaphor
    /// ("of those, which were published after 2000?").
    Refinement {
        /// The anaphoric phrase as typed ("of those", "them").
        phrase: String,
        /// The constraint fragment with anaphor and wh-scaffolding
        /// stripped ("published after 2000").
        fragment: String,
    },
    /// The question keeps the previous question's shape and swaps one
    /// constraint ("what about by Suciu?").
    Ellipsis {
        /// The elliptical lead-in as typed ("what about").
        phrase: String,
        /// The replacement constraint ("by Suciu").
        fragment: String,
    },
}

impl FollowUp {
    /// The anaphoric or elliptical phrase as the user typed it.
    pub fn phrase(&self) -> &str {
        match self {
            FollowUp::Refinement { phrase, .. } | FollowUp::Ellipsis { phrase, .. } => phrase,
        }
    }

    /// The constraint fragment to resolve against the prior turn.
    pub fn fragment(&self) -> &str {
        match self {
            FollowUp::Refinement { fragment, .. } | FollowUp::Ellipsis { fragment, .. } => fragment,
        }
    }
}

/// Standalone anaphors that make a question a refinement follow-up.
/// Possessives ("their") are deliberately absent: "Return all books
/// and their titles" is self-contained, and already draws the paper's
/// pronoun warning from validation instead.
const ANAPHORS: [&str; 4] = ["those", "these", "them", "they"];

/// Scaffolding words stripped from the front of a refinement fragment
/// (wh-words, copulas, and glue left over once the anaphor is
/// removed).
const SCAFFOLD: [&str; 14] = [
    "which", "who", "what", "ones", "one", "were", "are", "was", "is", "do", "does", "did", "and",
    "of",
];

/// Detect whether `question` is a follow-up that needs a previous turn
/// to be answerable, purely lexically (no parsing — the whole point is
/// that follow-ups like "of those, …" do *not* parse as standalone
/// questions).
///
/// Returns `None` for self-contained questions. The server uses this
/// on session-less requests to answer follow-ups with a typed
/// [`QueryError::MissingContext`] instead of an opaque parse error.
///
/// ```
/// use nalix::{detect_follow_up, FollowUp};
///
/// let f = detect_follow_up("Of those, which were published after 2000?").unwrap();
/// assert_eq!(f.phrase(), "of those");
/// assert_eq!(f.fragment(), "published after 2000");
/// assert!(matches!(f, FollowUp::Refinement { .. }));
///
/// let f = detect_follow_up("What about by Suciu?").unwrap();
/// assert_eq!(f.fragment(), "by Suciu");
/// assert!(matches!(f, FollowUp::Ellipsis { .. }));
///
/// assert!(detect_follow_up("Find all the books written by Stevens.").is_none());
/// // Possessive pronouns are self-contained (they draw a warning, not
/// // a context lookup).
/// assert!(detect_follow_up("Return all books and their titles.").is_none());
/// ```
pub fn detect_follow_up(question: &str) -> Option<FollowUp> {
    // Sentence punctuation is trimmed from the edges of each word, but
    // never inside a quoted span: the `.` in "Jeffrey D. Ullman" is part
    // of the value.
    let punct = |c: char| ",.?!;:".contains(c);
    let mut quoted = false;
    let words: Vec<&str> = question
        .split_whitespace()
        .map(|w| {
            let starts_quoted = quoted;
            quoted ^= w.matches('"').count() % 2 == 1;
            match (starts_quoted, quoted) {
                (false, false) => w.trim_matches(punct),
                (false, true) => w.trim_start_matches(punct),
                (true, false) => w.trim_end_matches(punct),
                (true, true) => w,
            }
        })
        .filter(|w| !w.is_empty())
        .collect();
    let lower: Vec<String> = words.iter().map(|w| w.to_lowercase()).collect();

    // Ellipsis: "what about …" / "how about …" (optionally after
    // "and").
    let ell = match lower.as_slice() {
        [a, b, ..] if (a == "what" || a == "how") && b == "about" => Some(2),
        [a, b, c, ..] if a == "and" && (b == "what" || b == "how") && c == "about" => Some(3),
        _ => None,
    };
    if let Some(k) = ell {
        if words.len() > k {
            return Some(FollowUp::Ellipsis {
                phrase: lower[..k].join(" "),
                fragment: words[k..].join(" "),
            });
        }
        return None;
    }

    // Refinement: a standalone anaphor anywhere in the question.
    let at = lower.iter().position(|w| ANAPHORS.contains(&w.as_str()))?;
    let preceded_by_of = at > 0 && lower[at - 1] == "of";
    let phrase = if preceded_by_of {
        format!("of {}", lower[at])
    } else {
        lower[at].clone()
    };
    let mut rest: Vec<&str> = Vec::new();
    for (i, w) in words.iter().enumerate() {
        if i == at || (preceded_by_of && i == at - 1) {
            continue;
        }
        rest.push(w);
    }
    let mut start = 0;
    while start < rest.len() {
        let w = rest[start].to_lowercase();
        if SCAFFOLD.contains(&w.as_str()) || nlparser::lexicon::is_command_verb(&w) {
            start += 1;
        } else {
            break;
        }
    }
    let fragment = rest[start..].join(" ");
    if fragment.is_empty() {
        return None;
    }
    Some(FollowUp::Refinement { phrase, fragment })
}

/// What a resolved follow-up was resolved to, attached to the
/// [`TurnAnswer`] so callers (the server, transcripts, tests) can show
/// the interpretation.
#[derive(Debug, Clone)]
pub struct ResolutionInfo {
    /// The anaphoric or elliptical phrase as typed.
    pub phrase: String,
    /// The previous question the phrase was resolved against.
    pub referent: String,
}

/// A successful conversational turn: the answer, the context the next
/// turn will resolve against, and — for follow-ups — what was
/// resolved.
#[derive(Debug, Clone)]
pub struct TurnAnswer {
    /// The answer payload (same shape the stateless path returns; for
    /// resolved follow-ups its warnings lead with
    /// [`FeedbackKind::AnaphoraResolved`]).
    pub answer: Answer,
    /// The completed turn — commit it to the [`Session`] so the next
    /// follow-up has context.
    pub turn: PriorTurn,
    /// Present when the question was a follow-up and resolution
    /// happened.
    pub resolution: Option<ResolutionInfo>,
}

impl Nalix {
    /// Answer one conversational turn.
    ///
    /// Self-contained questions behave exactly like
    /// [`Nalix::answer_full`] (including translation caching); the
    /// returned [`TurnAnswer::turn`] additionally carries the parse
    /// tree and values as context for the next turn. Follow-up
    /// questions (see [`detect_follow_up`]) are resolved against
    /// `prior`: refinements graft the new constraint onto the prior
    /// parse tree, ellipses substitute the matching value token. A
    /// follow-up with `prior == None` fails with
    /// [`QueryError::MissingContext`].
    ///
    /// Resolved follow-ups bypass the translation cache (the same
    /// surface text means different things in different conversations)
    /// and count one `anaphora_resolved` on the metrics registry.
    ///
    /// ```
    /// use nalix::{EvalBudget, Nalix};
    /// use xmldb::datasets::bib::bib;
    ///
    /// let nalix = Nalix::new(bib());
    /// let budget = EvalBudget::default();
    ///
    /// // Turn 1: a self-contained question.
    /// let t1 = nalix
    ///     .answer_turn("List all the books written by Stevens.", None, &budget)
    ///     .unwrap();
    /// assert!(t1.answer.values.iter().any(|v| v.contains("TCP/IP Illustrated")));
    ///
    /// // Turn 2: a follow-up refining the previous answer set.
    /// let t2 = nalix
    ///     .answer_turn(
    ///         "Of those, which were published after 1993?",
    ///         Some(&t1.turn),
    ///         &budget,
    ///     )
    ///     .unwrap();
    /// assert!(t2.answer.values.iter().any(|v| v.contains("TCP/IP Illustrated")));
    /// assert!(!t2.answer.values.iter().any(|v| v.contains("Unix")));
    /// assert!(t2.resolution.is_some());
    /// ```
    pub fn answer_turn(
        &self,
        sentence: &str,
        prior: Option<&PriorTurn>,
        budget: &EvalBudget,
    ) -> Result<TurnAnswer, QueryError> {
        self.answer_turn_on(self.backend(), sentence, prior, budget)
    }

    /// [`Nalix::answer_turn`] on an explicitly named backend (the
    /// server's per-request `backend` knob). Self-contained turns run
    /// the full backend path; resolved follow-ups compile and evaluate
    /// on the same backend after grafting.
    pub fn answer_turn_on(
        &self,
        backend: crate::BackendKind,
        sentence: &str,
        prior: Option<&PriorTurn>,
        budget: &EvalBudget,
    ) -> Result<TurnAnswer, QueryError> {
        let Some(follow) = detect_follow_up(sentence) else {
            let (answer, tree) = self.answer_full_tree_on(backend, sentence, budget)?;
            return Ok(TurnAnswer {
                turn: PriorTurn {
                    question: sentence.trim().to_string(),
                    tree,
                    values: answer.values.clone(),
                },
                answer,
                resolution: None,
            });
        };
        let Some(prior) = prior else {
            return Err(QueryError::missing_context(follow.phrase()));
        };
        let resolved = resolve(&follow, prior, &self.catalog)?;
        let (outcome, class) = self.run_from_classified(resolved);
        self.metrics.record_query(class);
        match outcome {
            Outcome::Translated(t) => {
                let (values, text, ordered) = self.run_translated(&t, backend, budget)?;
                self.metrics.add(obs::Counter::AnaphoraResolved, 1);
                let mut warnings = vec![Feedback::warning(FeedbackKind::AnaphoraResolved {
                    phrase: follow.phrase().to_string(),
                    referent: format!("\"{}\"", prior.question),
                })];
                warnings.extend(t.warnings);
                Ok(TurnAnswer {
                    answer: Answer {
                        values: values.clone(),
                        xquery: text,
                        backend,
                        ordered,
                        warnings,
                        cached: false,
                    },
                    turn: PriorTurn {
                        question: sentence.trim().to_string(),
                        tree: t.tree,
                        values,
                    },
                    resolution: Some(ResolutionInfo {
                        phrase: follow.phrase().to_string(),
                        referent: prior.question.clone(),
                    }),
                })
            }
            Outcome::Rejected(r) => Err(QueryError::from(r)),
        }
    }
}

/// Resolve a detected follow-up against the prior turn, producing the
/// classified tree that re-enters the pipeline at validation.
fn resolve(
    follow: &FollowUp,
    prior: &PriorTurn,
    catalog: &Catalog,
) -> Result<ClassifiedTree, QueryError> {
    let Some(prior_anchor) = anchor_of(&prior.tree) else {
        // The stored turn has no anchor noun to resolve against (it
        // answered, but not in a shape a follow-up can narrow).
        return Err(QueryError::missing_context(follow.phrase()));
    };
    let anchor_words = prior.tree.node(prior_anchor).words.clone();
    // Re-parse the fragment inside a synthetic command sentence built
    // around the prior anchor. The command form is the one shape the
    // grammar always accepts for a bare constraint.
    let synthetic_text = format!("Find all the {} {}.", anchor_words, follow.fragment());
    let dep = nlparser::parse(&synthetic_text).map_err(|e| QueryError::Parse {
        message: format!(
            "the follow-up \"{}\" could not be understood: {}",
            follow.fragment(),
            e.message
        ),
        position: e.position,
        suggestion: "Please rephrase the follow-up as a short constraint (for example \
                     \"of those, which were published after 2000?\") or repeat the \
                     full question."
            .into(),
    })?;
    let validation = validate::validate(classify::classify(&dep), catalog);
    if !validation.is_valid() {
        let errors: Vec<Feedback> = validation.errors().into_iter().cloned().collect();
        let warnings: Vec<Feedback> = validation.warnings().into_iter().cloned().collect();
        return Err(QueryError::from(crate::Rejected { errors, warnings }));
    }
    let synthetic = validation.tree;
    let Some(syn_anchor) = anchor_of(&synthetic) else {
        return Err(QueryError::missing_context(follow.phrase()));
    };
    match follow {
        FollowUp::Refinement { .. } => Ok(graft(&prior.tree, prior_anchor, &synthetic, syn_anchor)),
        FollowUp::Ellipsis { .. } => Ok(substitute(&prior.tree, &synthetic, catalog)
            .unwrap_or_else(|| graft(&prior.tree, prior_anchor, &synthetic, syn_anchor))),
    }
}

/// The anchor noun of a tree: the first name-token child of the root
/// command token ("books" in "Find all the books …").
fn anchor_of(tree: &ClassifiedTree) -> Option<usize> {
    tree.node(tree.root)
        .children
        .iter()
        .copied()
        .find(|&c| tree.node(c).class.is_nt())
}

/// Does the subtree at `i` carry an actual constraint — a value, name,
/// operator, function, sort, or negation token — as opposed to bare
/// markers and quantifiers ("all", "the")?
fn carries_constraint(tree: &ClassifiedTree, i: usize) -> bool {
    let n = tree.node(i);
    let content = matches!(
        n.class,
        crate::NodeClass::Token(
            TokenType::Vt
                | TokenType::Nt
                | TokenType::Ot(_)
                | TokenType::Obt(_)
                | TokenType::Ft(_)
                | TokenType::Neg
        )
    );
    content || n.children.iter().any(|&c| carries_constraint(tree, c))
}

/// Graft every constraint subtree under the synthetic anchor onto the
/// prior tree's anchor, remapping node indices and shifting sentence
/// orders past the prior tree's (so the combined tree still reads in
/// one consistent order).
fn graft(
    prior: &ClassifiedTree,
    prior_anchor: usize,
    synthetic: &ClassifiedTree,
    syn_anchor: usize,
) -> ClassifiedTree {
    let mut out = prior.clone();
    let base_order = out.nodes.iter().map(|n| n.order).max().unwrap_or(0) + 1;
    for &child in &synthetic.node(syn_anchor).children {
        if carries_constraint(synthetic, child) {
            copy_subtree(&mut out, prior_anchor, synthetic, child, base_order);
        }
    }
    out
}

/// Deep-copy the subtree rooted at `src[i]` into `out` under `parent`.
fn copy_subtree(
    out: &mut ClassifiedTree,
    parent: usize,
    src: &ClassifiedTree,
    i: usize,
    base_order: usize,
) {
    let mut node = src.node(i).clone();
    node.parent = Some(parent);
    node.children = Vec::new();
    node.order += base_order;
    let idx = out.nodes.len();
    out.nodes.push(node);
    if let Some(p) = out.nodes.get_mut(parent) {
        p.children.push(idx);
    }
    for &c in &src.node(i).children {
        copy_subtree(out, idx, src, c, base_order);
    }
}

/// The database labels a value token resolves to: its (implicit or
/// explicit) name-token parent's expansion when present, else a fresh
/// catalog lookup of the value itself.
fn vt_labels(tree: &ClassifiedTree, vt: usize, catalog: &Catalog) -> Vec<String> {
    if let Some(p) = tree.node(vt).parent {
        let parent = tree.node(p);
        if parent.class.is_nt() && !parent.expansion.is_empty() {
            return parent.expansion.clone();
        }
    }
    let word = &tree.node(vt).words;
    let labels = catalog.labels_for_value(word);
    if !labels.is_empty() {
        return labels;
    }
    match parse_finite(word) {
        Some(v) => catalog.numeric_labels_for(v),
        None => Vec::new(),
    }
}

/// Ellipsis substitution: for every value token of the (validated)
/// synthetic tree, find a value token in the prior tree with an
/// overlapping label set and swap the value in place (updating the
/// implicit name token above it). Returns `None` — caller falls back
/// to grafting — when any synthetic value has no counterpart, or the
/// fragment carried no values at all.
fn substitute(
    prior: &ClassifiedTree,
    synthetic: &ClassifiedTree,
    catalog: &Catalog,
) -> Option<ClassifiedTree> {
    let syn_vts: Vec<usize> = (0..synthetic.nodes.len())
        .filter(|&i| synthetic.node(i).class.is_vt())
        .collect();
    if syn_vts.is_empty() {
        return None;
    }
    let mut out = prior.clone();
    for svt in syn_vts {
        let labels = vt_labels(synthetic, svt, catalog);
        if labels.is_empty() {
            return None;
        }
        let target = (0..out.nodes.len()).find(|&i| {
            out.node(i).class.is_vt()
                && vt_labels(&out, i, catalog)
                    .iter()
                    .any(|l| labels.contains(l))
        })?;
        let (words, lemma) = {
            let s = synthetic.node(svt);
            (s.words.clone(), s.lemma.clone())
        };
        if let Some(t) = out.nodes.get_mut(target) {
            t.words = words;
            t.lemma = lemma;
        }
        // Keep the implicit name token above the value in step with the
        // new value's labels.
        let tparent = out.node(target).parent;
        let sparent = synthetic.node(svt).parent;
        if let (Some(tp), Some(sp)) = (tparent, sparent) {
            if out.node(tp).implicit && synthetic.node(sp).implicit {
                let (w, l, e) = {
                    let s = synthetic.node(sp);
                    (s.words.clone(), s.lemma.clone(), s.expansion.clone())
                };
                if let Some(t) = out.nodes.get_mut(tp) {
                    t.words = w;
                    t.lemma = l;
                    t.expansion = e;
                }
            }
        }
    }
    Some(out)
}

/// Result of looking a session up in a [`SessionStore`].
#[derive(Debug, Clone)]
pub enum SessionCheckout {
    /// No session under this id (never created, or LRU-evicted).
    Absent,
    /// A session existed but sat idle past the TTL; it has been
    /// removed, and the lookup counted one `session_expired`.
    Expired,
    /// A live session (recency bumped; counted one `session_hit`).
    Live(Session),
}

/// A bounded, thread-safe store of [`Session`]s keyed by
/// caller-supplied opaque ids.
///
/// Two bounds keep memory finite under millions of users: an **LRU
/// capacity** (committing a new session past capacity evicts the least
/// recently used one) and a **TTL** (a session idle past it expires on
/// its next checkout). Both retirements count `session_expired` on the
/// metrics registry, so the bounds are observable in `/metrics`.
///
/// ```
/// use nalix::{Session, SessionCheckout, SessionStore};
/// use std::time::Duration;
///
/// let store = SessionStore::new(2, Duration::from_secs(60));
/// assert!(matches!(store.checkout("alice"), SessionCheckout::Absent));
///
/// store.commit("alice", Session::new("bib", 1));
/// store.commit("bob", Session::new("bib", 1));
/// // Touching "alice" makes "bob" the least recently used…
/// assert!(matches!(store.checkout("alice"), SessionCheckout::Live(_)));
/// // …so a third session evicts "bob" (capacity 2).
/// store.commit("carol", Session::new("bib", 1));
/// assert_eq!(store.len(), 2);
/// assert!(matches!(store.checkout("bob"), SessionCheckout::Absent));
/// assert!(matches!(store.checkout("alice"), SessionCheckout::Live(_)));
/// ```
pub struct SessionStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
    ttl: Duration,
    metrics: std::sync::Arc<obs::MetricsRegistry>,
}

struct StoreInner {
    map: HashMap<String, Entry>,
    seq: u64,
}

struct Entry {
    session: Session,
    last_used: Instant,
    seq: u64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SessionStore {
    /// A store bounded to `capacity` live sessions with idle timeout
    /// `ttl`, recording into an isolated metrics registry.
    pub fn new(capacity: usize, ttl: Duration) -> Self {
        SessionStore::with_metrics(
            capacity,
            ttl,
            std::sync::Arc::new(obs::MetricsRegistry::new()),
        )
    }

    /// [`SessionStore::new`] recording into a caller-supplied registry
    /// (the server passes its global one, so `session_*` counters land
    /// in `/metrics`).
    pub fn with_metrics(
        capacity: usize,
        ttl: Duration,
        metrics: std::sync::Arc<obs::MetricsRegistry>,
    ) -> Self {
        SessionStore {
            inner: Mutex::new(StoreInner {
                map: HashMap::new(),
                seq: 0,
            }),
            capacity,
            ttl,
            metrics,
        }
    }

    /// Look up the session under `id`, bumping its recency.
    ///
    /// A live session is cloned out (counts `session_hit`); an idle
    /// one past the TTL is removed (counts `session_expired`). The
    /// caller distinguishes [`SessionCheckout::Absent`] (answer a
    /// follow-up with [`QueryError::MissingContext`]) from
    /// [`SessionCheckout::Expired`] ([`QueryError::ExpiredContext`]).
    pub fn checkout(&self, id: &str) -> SessionCheckout {
        let now = Instant::now();
        let mut g = lock(&self.inner);
        let expired = match g.map.get(id) {
            None => return SessionCheckout::Absent,
            Some(e) => now.saturating_duration_since(e.last_used) > self.ttl,
        };
        if expired {
            g.map.remove(id);
            self.metrics.add(obs::Counter::SessionExpired, 1);
            return SessionCheckout::Expired;
        }
        g.seq += 1;
        let seq = g.seq;
        if let Some(e) = g.map.get_mut(id) {
            e.last_used = now;
            e.seq = seq;
            self.metrics.add(obs::Counter::SessionHits, 1);
            return SessionCheckout::Live(e.session.clone());
        }
        SessionCheckout::Absent
    }

    /// Insert or update the session under `id` (bumps recency; a new
    /// id counts `session_create` and may LRU-evict the least recently
    /// used session, which counts `session_expired`).
    pub fn commit(&self, id: &str, session: Session) {
        let mut g = lock(&self.inner);
        g.seq += 1;
        let seq = g.seq;
        let fresh = g
            .map
            .insert(
                id.to_string(),
                Entry {
                    session,
                    last_used: Instant::now(),
                    seq,
                },
            )
            .is_none();
        if fresh {
            self.metrics.add(obs::Counter::SessionCreates, 1);
        }
        while g.map.len() > self.capacity {
            let Some(oldest) = g
                .map
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            g.map.remove(&oldest);
            self.metrics.add(obs::Counter::SessionExpired, 1);
        }
    }

    /// Drop the session under `id` (counts `session_expired` when one
    /// was present). The server calls this when the pinned document was
    /// reloaded or evicted — the context is gone either way.
    pub fn invalidate(&self, id: &str) -> bool {
        let mut g = lock(&self.inner);
        let removed = g.map.remove(id).is_some();
        if removed {
            self.metrics.add(obs::Counter::SessionExpired, 1);
        }
        removed
    }

    /// Number of resident sessions (expired-but-unvisited ones count
    /// until their lazy removal).
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// True when no sessions are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The LRU capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The idle TTL bound.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Nalix;
    use xmldb::datasets::bib::bib;

    fn nalix() -> Nalix {
        Nalix::new(bib())
    }

    #[test]
    fn detect_refinement_forms() {
        for q in [
            "Of those, which were published after 2000?",
            "of these, which were published after 2000?",
            "Which of those were published after 2000?",
            "Which of them were published after 2000?",
            "List them published after 2000.",
        ] {
            let f = detect_follow_up(q).unwrap_or_else(|| panic!("{q} not detected"));
            assert!(matches!(f, FollowUp::Refinement { .. }), "{q}");
            assert_eq!(f.fragment(), "published after 2000", "{q}");
        }
    }

    #[test]
    fn detect_ellipsis_forms() {
        let f = detect_follow_up("What about by Suciu?").unwrap();
        assert!(matches!(f, FollowUp::Ellipsis { .. }));
        assert_eq!(f.fragment(), "by Suciu");
        let f = detect_follow_up("And what about by Suciu?").unwrap();
        assert_eq!(f.fragment(), "by Suciu");
    }

    #[test]
    fn detect_keeps_quoted_values_intact() {
        let f = detect_follow_up("Which of them were written by \"Jeffrey D. Ullman\"?").unwrap();
        assert!(matches!(f, FollowUp::Refinement { .. }));
        assert_eq!(f.fragment(), "written by \"Jeffrey D. Ullman\"");
        // Punctuation outside the quotes is still trimmed.
        let f = detect_follow_up("What about by \"J. D. Ullman\", \"A. V. Aho.\"?").unwrap();
        assert_eq!(f.fragment(), "by \"J. D. Ullman\" \"A. V. Aho.\"");
        let f = detect_follow_up("Of those, which are \"Ullman\".").unwrap();
        assert_eq!(f.fragment(), "\"Ullman\"");
    }

    #[test]
    fn quoted_initials_follow_up_matches_stacked_sentence() {
        use xmldb::datasets::dblp::{generate, DblpConfig};
        let n = Nalix::new(generate(&DblpConfig::small()));
        let budget = EvalBudget::default();
        let t1 = n.answer_turn("Find all the books.", None, &budget).unwrap();
        let t2 = n
            .answer_turn(
                "Which of them were written by \"Jeffrey D. Ullman\"?",
                Some(&t1.turn),
                &budget,
            )
            .unwrap();
        let oracle = n
            .answer("Find all the books written by \"Jeffrey D. Ullman\".")
            .unwrap();
        assert!(!oracle.is_empty());
        assert_eq!(t2.answer.values, oracle);
        assert!(t2.resolution.is_some());
    }

    #[test]
    fn self_contained_questions_are_not_follow_ups() {
        for q in [
            "Find all the books written by Stevens.",
            "Return all books and their titles.",
            "Return every title.",
            "What about?",
            "",
        ] {
            assert!(detect_follow_up(q).is_none(), "{q}");
        }
    }

    #[test]
    fn three_turn_dialogue_matches_stateless_oracle() {
        let n = nalix();
        let budget = EvalBudget::default();
        let t1 = n
            .answer_turn("List all the books written by Stevens.", None, &budget)
            .unwrap();
        assert_eq!(
            t1.answer.values,
            n.answer("List all the books written by Stevens.").unwrap()
        );

        let t2 = n
            .answer_turn(
                "Of those, which were published after 1993?",
                Some(&t1.turn),
                &budget,
            )
            .unwrap();
        let oracle2 = n
            .answer("List all the books written by Stevens published after 1993.")
            .unwrap();
        assert_eq!(t2.answer.values, oracle2);
        assert!(t2.resolution.is_some());

        let t3 = n
            .answer_turn("What about by Suciu?", Some(&t2.turn), &budget)
            .unwrap();
        let oracle3 = n
            .answer("List all the books written by Suciu published after 1993.")
            .unwrap();
        assert_eq!(t3.answer.values, oracle3);
        assert!(t3
            .answer
            .values
            .iter()
            .any(|v| v.contains("Data on the Web")));
        assert!(!t3.answer.values.iter().any(|v| v.contains("Stevens")));
    }

    #[test]
    fn follow_up_without_context_is_missing_context() {
        let n = nalix();
        let err = n
            .answer_turn(
                "Of those, which were published after 2000?",
                None,
                &EvalBudget::default(),
            )
            .unwrap_err();
        assert_eq!(err.code(), "session.missing_context");
        assert!(!err.suggestion().is_empty());
    }

    #[test]
    fn resolved_turn_warns_with_referent() {
        let n = nalix();
        let budget = EvalBudget::default();
        let t1 = n
            .answer_turn("List all the books written by Stevens.", None, &budget)
            .unwrap();
        let t2 = n
            .answer_turn(
                "Of those, which were published after 1993?",
                Some(&t1.turn),
                &budget,
            )
            .unwrap();
        let msg = t2.answer.warnings[0].message();
        assert!(msg.contains("of those"), "{msg}");
        assert!(
            msg.contains("List all the books written by Stevens."),
            "{msg}"
        );
    }

    #[test]
    fn garbage_follow_up_is_a_typed_error() {
        let n = nalix();
        let budget = EvalBudget::default();
        let t1 = n
            .answer_turn("List all the books written by Stevens.", None, &budget)
            .unwrap();
        let err = n
            .answer_turn("Of those, which frobnicate zot?", Some(&t1.turn), &budget)
            .unwrap_err();
        assert!(!err.suggestion().is_empty());
    }

    #[test]
    fn anaphora_resolved_counts_on_metrics() {
        let n = nalix();
        let budget = EvalBudget::default();
        let t1 = n
            .answer_turn("List all the books written by Stevens.", None, &budget)
            .unwrap();
        let _ = n
            .answer_turn(
                "Of those, which were published after 1993?",
                Some(&t1.turn),
                &budget,
            )
            .unwrap();
        assert_eq!(n.metrics().counter(obs::Counter::AnaphoraResolved), 1);
    }

    #[test]
    fn store_ttl_expires_idle_sessions() {
        let store = SessionStore::new(8, Duration::ZERO);
        store.commit("s", Session::new("bib", 1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(store.checkout("s"), SessionCheckout::Expired));
        // Expiry is terminal: the next checkout is a plain miss.
        assert!(matches!(store.checkout("s"), SessionCheckout::Absent));
        assert_eq!(
            store
                .metrics
                .snapshot()
                .counter(obs::Counter::SessionExpired),
            1
        );
    }

    #[test]
    fn store_lru_evicts_least_recently_used() {
        let store = SessionStore::new(2, Duration::from_secs(60));
        store.commit("a", Session::new("bib", 1));
        store.commit("b", Session::new("bib", 1));
        // Touch "a" so "b" is the LRU victim.
        assert!(matches!(store.checkout("a"), SessionCheckout::Live(_)));
        store.commit("c", Session::new("bib", 1));
        assert_eq!(store.len(), 2);
        assert!(matches!(store.checkout("a"), SessionCheckout::Live(_)));
        assert!(matches!(store.checkout("b"), SessionCheckout::Absent));
        assert!(matches!(store.checkout("c"), SessionCheckout::Live(_)));
    }

    #[test]
    fn store_counts_creates_and_hits() {
        let store = SessionStore::new(8, Duration::from_secs(60));
        store.commit("s", Session::new("bib", 1));
        let mut s = match store.checkout("s") {
            SessionCheckout::Live(s) => s,
            other => panic!("{other:?}"),
        };
        s.record_turn(PriorTurn {
            question: "q".into(),
            tree: ClassifiedTree {
                nodes: vec![],
                root: 0,
            },
            values: vec![],
        });
        store.commit("s", s);
        let snap = store.metrics.snapshot();
        assert_eq!(snap.counter(obs::Counter::SessionCreates), 1);
        assert_eq!(snap.counter(obs::Counter::SessionHits), 1);
        match store.checkout("s") {
            SessionCheckout::Live(s) => assert_eq!(s.turns, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalidate_retires_and_counts() {
        let store = SessionStore::new(8, Duration::from_secs(60));
        store.commit("s", Session::new("bib", 1));
        assert!(store.invalidate("s"));
        assert!(!store.invalidate("s"));
        assert!(matches!(store.checkout("s"), SessionCheckout::Absent));
        assert_eq!(
            store
                .metrics
                .snapshot()
                .counter(obs::Counter::SessionExpired),
            1
        );
    }
}
