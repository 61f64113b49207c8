//! Shared fixtures for the benchmark suite and the experiment binaries.

use xmldb::datasets::dblp::{generate, DblpConfig};
use xmldb::Document;

/// Representative natural-language queries used by the translation and
/// evaluation benches — one per query feature class the paper's system
/// supports (plain retrieval, value predicate, schema-free join,
/// aggregation with grouping, nesting with counts, sorting, string
/// predicates).
pub const BENCH_QUERIES: [&str; 7] = [
    "Return the title and the authors of every book.",
    "Return the year and title of every book published by Addison-Wesley after 1991.",
    "Return the titles of books, where the author of the book contains \"Suciu\".",
    "Return the title of every book and the lowest year of the title.",
    "Return the title and the authors of every book, where the number of authors of the book is at least 1.",
    "Return the title of every book, sorted by title.",
    "Find all titles that contain \"XML\".",
];

/// The canonical accepted English phrasing of each of the nine XMP
/// user-study tasks, as `(task label, question)` pairs in paper order —
/// the workload of the `loadgen` binary.
pub fn xmp_questions() -> Vec<(&'static str, &'static str)> {
    userstudy::tasks::ALL_TASKS
        .iter()
        .map(|t| {
            let q = userstudy::phrasings::nl_pool(*t)
                .into_iter()
                .find(|p| p.kind == userstudy::phrasings::PoolKind::Good)
                .expect("every XMP task has an accepted phrasing")
                .text;
            (t.label(), q)
        })
        .collect()
}

/// A DBLP corpus scaled by a factor over the test-size config
/// (`scale = 1` ≈ 360 entries; `scale = 20` ≈ paper scale).
pub fn corpus(scale: usize) -> Document {
    generate(&DblpConfig {
        books: 40 * scale,
        articles: 80 * scale,
        seed: 7,
    })
}

/// The paper-scale corpus (~73k nodes).
pub fn paper_corpus() -> Document {
    generate(&DblpConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalix::{Nalix, Outcome};

    #[test]
    fn bench_queries_all_translate() {
        let doc = corpus(1);
        let nalix = Nalix::new(doc.clone());
        for q in BENCH_QUERIES {
            assert!(
                matches!(nalix.query(q), Outcome::Translated(_)),
                "bench query must translate: {q}"
            );
        }
    }

    #[test]
    fn corpus_scales() {
        assert!(corpus(2).len() > corpus(1).len());
    }

    #[test]
    fn xmp_questions_cover_all_nine_tasks_and_translate() {
        let qs = xmp_questions();
        assert_eq!(qs.len(), 9);
        let doc = corpus(1);
        let nalix = Nalix::new(doc.clone());
        for (label, q) in qs {
            assert!(
                matches!(nalix.query(q), Outcome::Translated(_)),
                "{label} phrasing must translate: {q}"
            );
        }
    }
}
