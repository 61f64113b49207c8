//! Helpers shared by the integration tests.

use nalix_repro::nalix::{obs, Nalix, Rejected};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One question's reply, as [`Nalix::ask`] gives it.
pub type Reply = Result<Vec<String>, Rejected>;

/// Answer `questions` on `threads` scoped workers sharing one pipeline,
/// replies in input order. Workers claim questions through an atomic
/// cursor and flush their thread-local counters before they return, as
/// the server's workers do.
pub fn ask_in_parallel(nalix: &Arc<Nalix>, threads: usize, questions: &[&str]) -> Vec<Reply> {
    let cursor = AtomicUsize::new(0);
    let mut replies: Vec<(usize, Reply)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = questions.get(i) else { break };
                        mine.push((i, nalix.ask(q)));
                    }
                    obs::flush_hot();
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    replies.sort_by_key(|(i, _)| *i);
    replies.into_iter().map(|(_, r)| r).collect()
}
