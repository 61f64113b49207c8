//! Determinism of the benchmark's inputs: digests, distinctness, the
//! refused share, and the validity of every generated edit.

use perfbench::oracle::{Expected, Oracle};
use perfbench::workload::{apply_batch, plan, xmp_phrasings, Op, Plan, Workload};
use std::collections::HashSet;

fn digests(p: &Plan) -> (u64, u64) {
    (p.corpus_digest(), p.sequence_digest())
}

#[test]
fn same_seed_same_digests_and_different_seeds_differ() {
    for w in Workload::ALL {
        let a = plan(w, 7, 1).expect("plan");
        let b = plan(w, 7, 1).expect("plan");
        let c = plan(w, 8, 1).expect("plan");
        assert_eq!(
            digests(&a),
            digests(&b),
            "{} is not deterministic",
            w.name()
        );
        assert_eq!(a.passes, b.passes);
        assert_ne!(a.corpus_digest(), c.corpus_digest(), "{} corpus", w.name());
        assert_ne!(
            a.sequence_digest(),
            c.sequence_digest(),
            "{} sequence",
            w.name()
        );
    }
}

#[test]
fn adhoc_questions_are_distinct_and_outnumber_the_cache() {
    let p = plan(Workload::AdhocDistinct, 3, 10).expect("plan");
    let mut seen = HashSet::new();
    for ops in std::iter::once(&p.warmup).chain(&p.passes) {
        for op in ops {
            let Op::Query(q) = op else {
                panic!("adhoc-distinct has no writes")
            };
            // Follow-ups bypass the translation cache; every question
            // that reaches it must be new.
            if q.session.as_ref().is_none_or(|t| t.number == 1) {
                assert!(seen.insert(q.text.clone()), "repeated: {}", q.text);
            }
        }
    }
    // Each pass's server sees the warm-up and that pass only.
    for pass in &p.passes {
        assert!(
            pass.len() > nalix::DEFAULT_CACHE_CAPACITY,
            "{} questions in a pass",
            pass.len()
        );
    }
}

#[test]
fn refused_share_stays_near_target() {
    // adhoc-distinct: a quarter of the questions are out of grammar.
    let p = plan(Workload::AdhocDistinct, 5, 1).expect("plan");
    let sample = Plan {
        passes: vec![p.passes[0][..400].to_vec()],
        warmup: Vec::new(),
        generations: Vec::new(),
        xml: p.xml,
    };
    let oracle = Oracle::compute(&sample).expect("oracle");
    let refused = sample.passes[0]
        .iter()
        .filter(|op| {
            let Op::Query(q) = op else { return false };
            matches!(oracle.expected(q), Some(Expected::Refused(_)))
        })
        .count() as f64
        / sample.passes[0].len() as f64;
    assert!((0.17..=0.33).contains(&refused), "adhoc refused {refused}");

    // xmp-paper: the invalid phrasings' share of the pool weights.
    let invalid: f64 = xmp_phrasings()
        .iter()
        .filter(|p| p.class.contains("/invalid"))
        .map(|p| p.share)
        .sum();
    let p = plan(Workload::XmpPaper, 5, 35).expect("plan");
    let drawn = p.passes[0]
        .iter()
        .filter(|op| matches!(op, Op::Query(q) if q.class.contains("/invalid")))
        .count() as f64
        / p.passes[0].len() as f64;
    assert!((drawn - invalid).abs() < 0.01, "{drawn} vs {invalid}");
    assert!((0.15..=0.25).contains(&drawn), "xmp refused share {drawn}");

    // Every pass asks the same classes in the same proportions, in its
    // own order.
    let classes = |ops: &[Op]| {
        let mut c: Vec<String> = ops
            .iter()
            .map(|op| match op {
                Op::Query(q) => q.class.clone(),
                Op::Update(_) => "update".to_string(),
            })
            .collect();
        c.sort();
        c
    };
    for pass in &p.passes[1..] {
        assert_eq!(classes(pass), classes(&p.passes[0]));
        assert_ne!(pass, &p.passes[0], "passes share one order");
    }
}

#[test]
fn every_generated_edit_is_valid_at_its_generation() {
    let p = plan(Workload::ReadWrite, 11, 2).expect("plan");
    let mut doc = xmldb::Document::parse_str(&p.xml).expect("corpus parses");
    let mut generation = 0;
    assert!(p.passes.iter().all(|pass| pass == &p.passes[0]));
    for op in &p.passes[0] {
        match op {
            Op::Update(u) => {
                assert_eq!(u.generation, generation);
                assert!((1..=4).contains(&u.edits.len()));
                doc = apply_batch(&doc, &u.edits).expect("edit valid at its generation");
                generation += 1;
                assert_eq!(doc.to_xml(doc.root()), p.generations[generation - 1]);
            }
            Op::Query(q) => assert_eq!(q.generation, generation),
        }
    }
    assert_eq!(generation, p.writes());
    assert!(generation >= 4, "{generation} writes");
}
