//! Known-answer accounting for the observability layer: the nine XMP
//! questions over the embedded `bib.xml` sample must produce exactly
//! the spans, query outcomes, and cache counts the pipeline structure
//! predicts — one span per stage per cache miss, none per hit, an eval
//! span per execution — and parallel/split runs must sum to the serial
//! totals.

mod common;

use common::ask_in_parallel;
use nalix_repro::nalix::{obs, Nalix};
use nalix_repro::xmldb::datasets::bib::bib;
use std::sync::Arc;

/// Nine distinct questions that all translate and evaluate cleanly.
const QUESTIONS: [&str; 9] = [
    "Return the title of every book published by Addison-Wesley after 1991.",
    "Return the title of every book, where the price of the book is less than 50.",
    "Return the lowest price for each book.",
    "Return the title of the book with the lowest price.",
    "Return the affiliation of the editor of every book.",
    "Return the number of authors of each book.",
    "Return the price of every book, sorted by price.",
    "Return the company of each book.",
    "Return the title of every book.",
];

fn fresh_nalix(doc: &nalix_repro::xmldb::Document) -> Nalix {
    Nalix::with_metrics(doc.clone(), Arc::new(obs::MetricsRegistry::new()))
}

/// Deterministic counters for cross-run comparison. `ValueIndexBuilds`
/// is excluded: concurrent first touches may each build, so its count
/// is schedule-dependent. Global-only counters (tokenizer, parser,
/// structural axes) read as zero on instance registries either way.
fn comparable_counters(snap: &obs::MetricsSnapshot) -> Vec<(String, u64)> {
    obs::Counter::ALL
        .iter()
        .filter(|c| **c != obs::Counter::ValueIndexBuilds)
        .map(|c| (c.name().to_owned(), snap.counter(*c)))
        .collect()
}

#[test]
fn golden_run_accounts_every_stage_exactly_once() {
    let doc = bib();
    let nalix = fresh_nalix(&doc);

    for q in QUESTIONS {
        assert!(nalix.ask(q).is_ok(), "{q} should translate and evaluate");
    }
    let first = nalix.metrics();

    // One span per pipeline stage per cache miss, all successful.
    for stage in [
        obs::Stage::Parse,
        obs::Stage::Classify,
        obs::Stage::Validate,
        obs::Stage::Translate,
    ] {
        let s = first.stage(stage);
        assert_eq!(s.spans(), 9, "{} spans", stage.name());
        assert_eq!(s.ok(), 9, "{} ok", stage.name());
        assert_eq!(s.errors(), 0, "{} errors", stage.name());
    }
    assert_eq!(first.stage(obs::Stage::Eval).spans(), 9);
    assert_eq!(first.stage(obs::Stage::Eval).ok(), 9);

    // Exactly one query outcome per submission.
    assert_eq!(first.queries_total(), 9);
    assert_eq!(first.queries_with(obs::SpanOutcome::Ok), 9);
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.cache_misses, 9);
    assert_eq!(first.cache_entries, 9);

    // Histogram sanity: time was recorded and quantiles are ordered.
    let parse = &first.stage(obs::Stage::Parse).latency;
    assert_eq!(parse.count, 9);
    assert!(parse.sum_ns > 0);
    assert!(parse.quantile_ns(0.5) <= parse.quantile_ns(0.99));

    // Second pass: every question hits the cache — zero new
    // parse/classify/validate/translate spans, but execution still
    // runs, so eval spans double.
    for q in QUESTIONS {
        assert!(nalix.ask(q).is_ok());
    }
    let second = nalix.metrics();
    assert_eq!(second.stage(obs::Stage::Translate).spans(), 9);
    assert_eq!(second.stage(obs::Stage::Parse).spans(), 9);
    assert_eq!(second.stage(obs::Stage::Eval).spans(), 18);
    assert_eq!(second.queries_total(), 18);
    assert_eq!(second.queries_with(obs::SpanOutcome::CacheHit), 9);
    assert_eq!(second.cache_hits, 9);
    assert_eq!(second.cache_misses, 9);
    assert_eq!(second.cache_entries, 9);
}

#[test]
fn failed_queries_record_their_failure_class() {
    let doc = bib();
    let nalix = fresh_nalix(&doc);

    // An unknown term rejects in classification.
    let _ = nalix.query("Frobnicate the zzyzx of every book.");
    let snap = nalix.metrics();
    assert_eq!(snap.queries_total(), 1);
    assert_eq!(
        snap.queries_with(obs::SpanOutcome::Ok) + snap.queries_with(obs::SpanOutcome::CacheHit),
        0,
        "a rejected question must not count as successful"
    );
    // Whatever the precise class, it is an error outcome.
    let errors: u64 = obs::SpanOutcome::ALL
        .into_iter()
        .filter(|o| o.is_error())
        .map(|o| snap.queries_with(o))
        .sum();
    assert_eq!(errors, 1);
}

#[test]
fn parallel_batch_totals_equal_serial_totals() {
    let doc = bib();

    let serial_nalix = Arc::new(fresh_nalix(&doc));
    let serial_replies = ask_in_parallel(&serial_nalix, 1, &QUESTIONS);
    let serial = serial_nalix.metrics();

    let par_nalix = Arc::new(fresh_nalix(&doc));
    let par_replies = ask_in_parallel(&par_nalix, 8, &QUESTIONS);
    let par = par_nalix.metrics();

    assert_eq!(serial_replies.len(), par_replies.len());
    for stage in obs::Stage::ALL {
        let (s, p) = (serial.stage(stage), par.stage(stage));
        assert_eq!(s.outcomes, p.outcomes, "{} outcomes", stage.name());
        assert_eq!(
            s.latency.count,
            p.latency.count,
            "{} latency count",
            stage.name()
        );
    }
    for outcome in obs::SpanOutcome::ALL {
        assert_eq!(serial.queries_with(outcome), par.queries_with(outcome));
    }
    assert_eq!(
        (serial.cache_hits, serial.cache_misses, serial.cache_entries),
        (par.cache_hits, par.cache_misses, par.cache_entries)
    );
    assert_eq!(comparable_counters(&serial), comparable_counters(&par));
}

#[test]
fn snapshot_merge_across_instances_equals_single_instance() {
    let doc = bib();

    let whole = fresh_nalix(&doc);
    for q in QUESTIONS {
        let _ = whole.ask(q);
    }
    let expected = whole.metrics();

    let left = fresh_nalix(&doc);
    let right = fresh_nalix(&doc);
    for q in &QUESTIONS[..4] {
        let _ = left.ask(q);
    }
    for q in &QUESTIONS[4..] {
        let _ = right.ask(q);
    }
    let mut merged = left.metrics();
    merged.merge(&right.metrics());

    for stage in obs::Stage::ALL {
        assert_eq!(
            merged.stage(stage).outcomes,
            expected.stage(stage).outcomes,
            "{} outcomes",
            stage.name()
        );
        assert_eq!(
            merged.stage(stage).latency.count,
            expected.stage(stage).latency.count
        );
    }
    assert_eq!(merged.queries_total(), expected.queries_total());
    assert_eq!(
        (merged.cache_hits, merged.cache_misses, merged.cache_entries),
        (
            expected.cache_hits,
            expected.cache_misses,
            expected.cache_entries
        )
    );
    assert_eq!(comparable_counters(&merged), comparable_counters(&expected));
}

#[test]
fn disabled_registry_records_nothing_but_answers_stay_correct() {
    let doc = bib();

    let reference = fresh_nalix(&doc);
    let expected: Vec<Vec<String>> = QUESTIONS
        .iter()
        .map(|q| reference.ask(q).expect(q))
        .collect();

    let registry = Arc::new(obs::MetricsRegistry::new());
    registry.set_enabled(false);
    let nalix = Nalix::with_metrics(doc.clone(), Arc::clone(&registry));
    let got: Vec<Vec<String>> = QUESTIONS.iter().map(|q| nalix.ask(q).expect(q)).collect();

    assert_eq!(expected, got, "disabling metrics must not change answers");
    assert_eq!(
        registry.snapshot(),
        obs::MetricsSnapshot::new(),
        "a disabled registry must record nothing"
    );
}
