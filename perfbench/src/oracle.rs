//! Oracles: what every request must return, computed in-process on an
//! independently parsed copy of the corpus before the server starts.
//!
//! * `xmp-paper`, `adhoc-distinct`: the stateless in-process answer.
//! * `xmp-sql`: the XQuery answer set of the same question.
//! * dialogue follow-ups: the answer of their stacked sentence.
//! * `read-write`: a from-scratch rebuild (serialize, then reparse) of
//!   each generation, plus the probe's expected title by construction.

use crate::workload::{Op, Plan, Query};
use nalix::{AnswerSet, BackendKind, EvalBudget, Nalix};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use xmldb::Document;

/// The expected outcome of one question.
#[derive(Debug, Clone)]
pub enum Expected {
    /// Answered with these values (compared as an [`AnswerSet`]).
    Answer(AnswerSet),
    /// Refused with this error code.
    Refused(&'static str),
}

/// Expected outcomes keyed by generation and stateless sentence.
#[derive(Debug, Default)]
pub struct Oracle {
    expected: HashMap<(usize, String), Expected>,
}

/// How a response compares with its oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Matches.
    Ok,
    /// The SQL backend refused with `budget.tuples` where the XQuery
    /// oracle answered: the known SQL defect, listed in every report.
    SqlBudgetRefusal,
    /// The server refused with `budget.time` (504) where the oracle
    /// answered: evaluation outlasted nalixd's default 2 s deadline. The
    /// server's contract allows it; whether it happens depends on the
    /// host's speed, so it is listed in every report, not failed.
    DeadlineRefusal,
    /// Anything else: wrong answer, wrong code, transport error.
    Failed(String),
}

fn outcome(nalix: &Nalix, sentence: &str) -> Expected {
    // No deadline: the oracle must not itself refuse for time.
    match nalix.answer_full_on(BackendKind::Xquery, sentence, &EvalBudget::default()) {
        Ok(a) => Expected::Answer(AnswerSet::new(a.values, a.ordered)),
        Err(e) => Expected::Refused(e.code()),
    }
}

fn queries(plan: &Plan) -> impl Iterator<Item = &Query> {
    plan.warmup
        .iter()
        .chain(plan.passes.iter().flatten())
        .filter_map(|op| match op {
            Op::Query(q) => Some(q),
            Op::Update(_) => None,
        })
}

impl Oracle {
    /// Compute every expected outcome of `plan`, on up to two threads.
    pub fn compute(plan: &Plan) -> Result<Oracle, String> {
        // Sentences to answer, grouped by generation.
        let mut by_gen: Vec<Vec<String>> = vec![Vec::new(); plan.generations.len() + 1];
        let mut wanted = std::collections::HashSet::new();
        for q in queries(plan) {
            if wanted.insert((q.generation, q.oracle_text.clone())) {
                by_gen[q.generation].push(q.oracle_text.clone());
            }
        }
        // Work items of at most half a generation's sentences (when it
        // has many), so two threads share even a single generation.
        let items: Vec<(usize, &[String])> = by_gen
            .iter()
            .enumerate()
            .flat_map(|(g, s)| {
                let chunk = if s.len() > 8 { s.len().div_ceil(2) } else { 8 };
                s.chunks(chunk).map(move |c| (g, c))
            })
            .collect();
        let next = AtomicUsize::new(0);
        let results = Mutex::new(HashMap::new());
        let error = Mutex::new(None);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(g, sentences)) = items.get(i) else {
                        break;
                    };
                    let xml = if g == 0 {
                        &plan.xml
                    } else {
                        &plan.generations[g - 1]
                    };
                    let doc = match Document::parse_str(xml) {
                        Ok(d) => d,
                        Err(e) => {
                            *error.lock().expect("oracle error slot poisoned") =
                                Some(format!("generation {g} does not reparse: {e}"));
                            break;
                        }
                    };
                    let nalix = Nalix::new(doc);
                    let local: Vec<_> = sentences
                        .iter()
                        .map(|s| ((g, s.clone()), outcome(&nalix, s)))
                        .collect();
                    results
                        .lock()
                        .expect("oracle result map poisoned")
                        .extend(local);
                });
            }
        });
        if let Some(e) = error.into_inner().expect("oracle error slot poisoned") {
            return Err(e);
        }
        let oracle = Oracle {
            expected: results.into_inner().expect("oracle result map poisoned"),
        };
        oracle.check_probes(plan)?;
        Ok(oracle)
    }

    /// The read-your-write probes know their answer by construction;
    /// the rebuilt generation must agree, or the oracle is wrong.
    fn check_probes(&self, plan: &Plan) -> Result<(), String> {
        for q in queries(plan) {
            let Some(want) = &q.probe else { continue };
            let got = self.expected(q);
            let holds = match (got, want) {
                (Some(Expected::Answer(set)), Some(title)) => set.values == [title.clone()],
                (Some(Expected::Answer(set)), None) => set.values.is_empty(),
                _ => false,
            };
            if !holds {
                return Err(format!(
                    "probe oracle disagrees with construction at generation {}: {}",
                    q.generation, q.text
                ));
            }
        }
        Ok(())
    }

    /// The expected outcome of `q`.
    pub fn expected(&self, q: &Query) -> Option<&Expected> {
        self.expected.get(&(q.generation, q.oracle_text.clone()))
    }

    /// Share of distinct questions the oracle refuses.
    pub fn refused_share(&self) -> f64 {
        let refused = self
            .expected
            .values()
            .filter(|e| matches!(e, Expected::Refused(_)))
            .count();
        refused as f64 / self.expected.len().max(1) as f64
    }
}

/// Compare the HTTP reply to `op` (`base` = server generation as loaded).
pub fn check(op: &Op, oracle: &Oracle, base: u64, status: u16, body: &str) -> Verdict {
    use server::json::Json;
    let parsed = match Json::parse(body) {
        Ok(j) => j,
        Err(e) => return Verdict::Failed(format!("status {status}, unparseable body: {e}")),
    };
    match op {
        Op::Update(u) => {
            let want = base + u.generation as u64 + 1;
            match parsed.get("generation").and_then(Json::as_u64) {
                Some(g) if status == 200 && g == want => Verdict::Ok,
                _ => Verdict::Failed(format!(
                    "update at generation {} answered {status}: {body}",
                    u.generation
                )),
            }
        }
        Op::Query(q) => {
            let Some(expected) = oracle.expected(q) else {
                return Verdict::Failed("no oracle for question".to_string());
            };
            let code = parsed
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str);
            let answers = parsed.get("answers").and_then(Json::as_array);
            match (expected, status, answers, code) {
                (Expected::Answer(want), 200, Some(values), _) => {
                    let got: Vec<String> = values
                        .iter()
                        .map(|v| v.as_str().unwrap_or_default().to_string())
                        .collect();
                    if AnswerSet::new(got, want.ordered).equivalent(want) {
                        Verdict::Ok
                    } else {
                        Verdict::Failed(format!(
                            "answer differs from oracle ({} values expected, {} got)",
                            want.values.len(),
                            values.len()
                        ))
                    }
                }
                (Expected::Answer(_), _, _, Some("budget.tuples"))
                    if q.backend == BackendKind::Sql =>
                {
                    Verdict::SqlBudgetRefusal
                }
                (Expected::Answer(_), 504, _, Some("budget.time")) => Verdict::DeadlineRefusal,
                (Expected::Refused(want), _, _, Some(got)) if *want == got => Verdict::Ok,
                (Expected::Answer(_), _, _, _) => Verdict::Failed(format!(
                    "refused ({status} {}) where the oracle answered",
                    code.unwrap_or("?")
                )),
                (Expected::Refused(want), _, _, _) => Verdict::Failed(format!(
                    "expected refusal {want}, got {status} {}",
                    code.unwrap_or("answer")
                )),
            }
        }
    }
}
