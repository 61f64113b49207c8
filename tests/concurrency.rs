//! Thread-safety guarantees of the query path.
//!
//! The whole pipeline shares one `Nalix` (document + catalog + engine +
//! caches) across threads; these tests pin down both the compile-time
//! contract (`Send + Sync`) and the runtime one (parallel evaluation is
//! observationally identical to serial evaluation).

mod common;

use common::{ask_in_parallel, Reply};
use nalix_repro::nalix::{Nalix, Rejected};
use nalix_repro::xmldb::datasets::dblp::{generate, DblpConfig};
use nalix_repro::xmldb::Document;
use nalix_repro::xquery::Engine;
use std::sync::Arc;

/// Compile-time assertion: the shared core is `Send + Sync`.
#[test]
fn query_path_types_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Document>();
    assert_send_sync::<Engine>();
    assert_send_sync::<Nalix>();
}

fn render(reply: &Reply) -> String {
    fn errs(r: &Rejected) -> String {
        r.errors
            .iter()
            .map(|f| f.message())
            .collect::<Vec<_>>()
            .join("|")
    }
    match reply {
        Ok(v) => format!("ok:{}", v.join("|")),
        Err(r) => format!("rejected:{}", errs(r)),
    }
}

/// Eight threads sharing one engine produce, query for query, exactly
/// the replies a serial loop produces — including rejections and the
/// deliberately unparseable sentence.
#[test]
fn eight_thread_batch_is_identical_to_serial() {
    let doc = generate(&DblpConfig {
        books: 30,
        articles: 60,
        seed: 11,
    });
    let nalix = Arc::new(Nalix::new(doc.clone()));

    let mut questions: Vec<&str> = vec![
        "Return the title and the authors of every book.",
        "Return the year and title of every book published by Addison-Wesley after 1991.",
        "Return the titles of books, where the author of the book contains \"Suciu\".",
        "Return the title of every book and the lowest year of the title.",
        "Return the title of every book, sorted by title.",
        "Find all titles that contain \"XML\".",
        "Return every director who has directed as many movies as has Ron Howard.",
        "The weather is nice today.",
    ];
    // Duplicate the batch so the translation cache sees hits mid-run.
    let dup = questions.clone();
    questions.extend(dup);

    let serial: Vec<String> = questions.iter().map(|q| render(&nalix.ask(q))).collect();

    for _round in 0..3 {
        let parallel = ask_in_parallel(&nalix, 8, &questions);
        let parallel: Vec<String> = parallel.iter().map(render).collect();
        assert_eq!(parallel, serial);
    }

    let stats = nalix.cache_stats();
    assert!(stats.hits > 0, "repeated questions must hit the cache");
    assert_eq!(stats.entries, questions.len() / 2);
}

/// Raw engine sharing (below the NL layer): concurrent `run` calls on
/// one `Engine` agree with serial evaluation.
#[test]
fn shared_engine_concurrent_queries_match_serial() {
    let doc = generate(&DblpConfig {
        books: 20,
        articles: 40,
        seed: 3,
    });
    let engine = Engine::new(doc.clone());
    let queries = [
        "for $b in doc()//book return $b/title",
        "for $t in doc()//title, $a in doc()//author where mqf($t,$a) and contains($a, \"a\") return $t",
        "for $b in doc()//book where count($b/author) > 1 return $b/title",
    ];
    let serial: Vec<Vec<String>> = queries
        .iter()
        .map(|q| engine.strings(&engine.run(q).unwrap()))
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let engine = &engine;
                let serial = &serial;
                s.spawn(move || {
                    let q = queries[i % queries.len()];
                    let got = engine.strings(&engine.run(q).unwrap());
                    assert_eq!(&got, &serial[i % queries.len()]);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}
