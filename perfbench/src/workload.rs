//! Workloads: the seeded corpus and the full request sequence.
//!
//! Every input of a run is a pure function of the workload name, the
//! seed and the run length: the DBLP corpus (written as XML, which is
//! what `nalixd` loads), the warm-up requests, and the timed requests.
//! The timed requests are a fixed amount of work, split into one
//! sequence for each of [`PASSES`] freshly booted servers and sized so
//! that the passes together last about `--seconds` at the reference speed
//! in [`Workload::ops_per_second`]. Two runs of one seed send
//! byte-identical request streams.
//!
//! Question mixes are *stratified*: the share of every phrasing is
//! apportioned exactly and the seed only shuffles the order, so every
//! seed asks the same classes in the same proportions and the latency
//! percentiles land in the same class from seed to seed.

use nalix::BackendKind;
use std::collections::{BTreeSet, HashSet};
use store::EditSpec;
use userstudy::phrasings::{nl_pool, PoolKind};
use userstudy::tasks::ALL_TASKS;
use xmldb::datasets::dblp::{generate, DblpConfig};
use xmldb::datasets::rng::SplitMix64;
use xmldb::{Document, NewNode, NodeId, NodeKind};

/// The four workloads. See `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale corpus, the 46 user-study phrasings by weight, XQuery.
    XmpPaper,
    /// The same phrasings and weights on the SQL backend.
    XmpSql,
    /// Small corpus, grammar templates, no question repeats.
    AdhocDistinct,
    /// The `xmp-paper` reads with every k-th operation an update batch.
    ReadWrite,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::XmpPaper,
        Workload::XmpSql,
        Workload::AdhocDistinct,
        Workload::ReadWrite,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::XmpPaper => "xmp-paper",
            Workload::XmpSql => "xmp-sql",
            Workload::AdhocDistinct => "adhoc-distinct",
            Workload::ReadWrite => "read-write",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Corpus size as `(books, articles)`. `xmp-paper` and `read-write`
    /// use the paper-scale default (~80k nodes, 1.4 MB of XML). `xmp-sql`
    /// runs at one eighth of it (~10k nodes): at paper scale 18 of the
    /// 28 accepted phrasings burn the whole tuple budget on the SQL
    /// backend (0.35–1.5 s each), which leaves too few answered requests
    /// per run to measure. `adhoc-distinct` uses ~4k nodes so that
    /// evaluation is cheap and the front half of the pipeline dominates.
    fn corpus_size(self) -> (usize, usize) {
        match self {
            Workload::XmpPaper | Workload::ReadWrite => {
                let d = DblpConfig::default();
                (d.books, d.articles)
            }
            Workload::XmpSql => (300, 600),
            Workload::AdhocDistinct => (120, 240),
        }
    }

    /// The backend every question is sent to.
    fn backend(self) -> BackendKind {
        match self {
            Workload::XmpSql => BackendKind::Sql,
            _ => BackendKind::Xquery,
        }
    }

    /// Timed operations per second of `--seconds` (the reference speed
    /// of this code on a 2-vCPU host): each pass's sequence holds
    /// `seconds × ops_per_second / PASSES` operations.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::XmpPaper => 26,
            Workload::XmpSql => 29,
            Workload::AdhocDistinct => 2900,
            Workload::ReadWrite => 36,
        }
    }
}

/// A conversational turn: the session id and the 1-based turn number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Turn {
    /// Session id sent as `"session"`.
    pub id: String,
    /// 1 for the opening question, 2.. for follow-ups.
    pub number: u32,
}

/// One `POST /query`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The question as sent.
    pub text: String,
    /// The question class: one phrasing or template (`Q4/good#2`,
    /// `in-grammar#9`, `dialogue/turn2`, `probe`), printed beside the
    /// latency percentiles.
    pub class: String,
    /// The backend named in the request.
    pub backend: BackendKind,
    /// Present for dialogue turns.
    pub session: Option<Turn>,
    /// The stateless sentence whose answer this request must equal: the
    /// question itself, or the stacked sentence of a follow-up.
    pub oracle_text: String,
    /// Document generation (0 = as loaded) the question is asked at.
    pub generation: usize,
    /// For read-your-write probes: the title the answer must hold
    /// (`Some(title)`) or must not hold (`None`).
    pub probe: Option<Option<String>>,
}

/// One `POST /docs/dblp/update` batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Update {
    /// The edits, addressed by pre-order rank in `generation`.
    pub edits: Vec<EditSpec>,
    /// The generation the batch edits (sent as `expected_generation`).
    pub generation: usize,
}

/// One operation of the sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A question.
    Query(Query),
    /// An update batch.
    Update(Update),
}

/// Every input of one run.
#[derive(Debug)]
pub struct Plan {
    /// The corpus as loaded (generation 0).
    pub xml: String,
    /// Requests sent after each server boot, inside `setup_s`.
    pub warmup: Vec<Op>,
    /// The timed requests of each pass, sent to that pass's server after
    /// its warm-up. `xmp-paper` and `xmp-sql` shuffle the same stratified
    /// mix anew for every pass, so a run averages over three orders;
    /// `adhoc-distinct` asks new questions in every pass; `read-write`
    /// repeats one sequence, because its edits address the generations
    /// its earlier batches produce.
    pub passes: Vec<Vec<Op>>,
    /// XML of generations 1, 2, ... (`read-write` only): the expected
    /// document after each update batch.
    pub generations: Vec<String>,
}

/// The document name the corpus is served under (`--dataset dblp.xml`).
pub const DOC_NAME: &str = "dblp";

/// Server boots per run. Each boot is followed by the warm-up and one
/// pass of timed requests; the end-to-end metrics pool the passes, so
/// one slow process or one slow stretch of the host does not decide a
/// run.
pub const PASSES: usize = 3;

/// Share of `adhoc-distinct` operations that open a dialogue.
const DIALOGUE_SHARE: f64 = 0.02;
/// Share of `adhoc-distinct` questions drawn from out-of-grammar
/// templates (about this share is refused with feedback).
const REFUSED_SHARE: f64 = 0.25;
/// Distinct warm-up questions of `adhoc-distinct` (never reused): enough
/// that the first timed requests no longer run slower than the rest.
const ADHOC_WARMUP: usize = 2000;
/// In `read-write`, every `DIALOGUE_EVERY`-th write cycle starts with a
/// two-turn dialogue.
const DIALOGUE_EVERY: usize = 6;
/// In `read-write`, every `WRITE_EVERY`-th operation is an update batch.
const WRITE_EVERY: usize = 5;

/// FNV-1a, the digest printed for the corpus and the sequence.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A stream of pseudo-random numbers derived from `seed` and a purpose
/// tag, so corpus and sequence draws never share a stream.
fn stream(seed: u64, tag: u64) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag)
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i + 1);
        v.swap(i, j);
    }
}

/// Largest-remainder apportionment of `n` slots by `shares`; ties go to
/// the earlier entry, so the counts depend on `n` alone.
fn apportion(shares: &[f64], n: usize) -> Vec<usize> {
    let total: f64 = shares.iter().sum();
    let exact: Vec<f64> = shares.iter().map(|s| s / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// One user-study phrasing with its class and share of all questions.
#[derive(Debug, Clone)]
pub struct Phrasing {
    /// `Q<n>/<good|deviating|invalid>#<position in the task's pool>`.
    pub class: String,
    /// The sentence.
    pub text: &'static str,
    /// Tasks are equally likely; within a task, the first-attempt pool
    /// weight decides.
    pub share: f64,
}

/// The user-study phrasings of the nine XMP tasks.
pub fn xmp_phrasings() -> Vec<Phrasing> {
    let mut out = Vec::new();
    for task in ALL_TASKS {
        let pool = nl_pool(task);
        let total: f64 = pool.iter().map(|p| p.weight).sum();
        for (i, p) in pool.into_iter().enumerate() {
            let kind = match p.kind {
                PoolKind::Good => "good",
                PoolKind::Deviating => "deviating",
                PoolKind::Invalid => "invalid",
            };
            out.push(Phrasing {
                class: format!("{}/{kind}#{}", task.label(), i + 1),
                text: p.text,
                share: p.weight / total / ALL_TASKS.len() as f64,
            });
        }
    }
    out
}

fn query(text: impl Into<String>, class: impl Into<String>, backend: BackendKind) -> Query {
    let text = text.into();
    Query {
        oracle_text: text.clone(),
        text,
        class: class.into(),
        backend,
        session: None,
        generation: 0,
        probe: None,
    }
}

/// `n` phrasings in stratified order: exact shares, seeded shuffle.
fn xmp_sequence(n: usize, backend: BackendKind, rng: &mut SplitMix64) -> Vec<Query> {
    let pool = xmp_phrasings();
    let shares: Vec<f64> = pool.iter().map(|p| p.share).collect();
    let mut seq = Vec::with_capacity(n);
    for (p, count) in pool.iter().zip(apportion(&shares, n)) {
        for _ in 0..count {
            seq.push(query(p.text, p.class.clone(), backend));
        }
    }
    shuffle(&mut seq, rng);
    seq
}

/// Each distinct phrasing once, in pool order.
fn xmp_warmup(backend: BackendKind) -> Vec<Op> {
    let mut seen = HashSet::new();
    xmp_phrasings()
        .into_iter()
        .filter(|p| seen.insert(p.text))
        .map(|p| Op::Query(query(p.text, p.class, backend)))
        .collect()
}

/// The corpus of `workload` for `seed`.
fn corpus(workload: Workload, seed: u64) -> Document {
    let (books, articles) = workload.corpus_size();
    generate(&DblpConfig {
        books,
        articles,
        seed: stream(seed, 1).next_u64(),
    })
}

/// Build the plan of one run.
pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Result<Plan, String> {
    let doc = corpus(workload, seed);
    let xml = doc.to_xml(doc.root());
    let n = ((seconds as usize).max(1) * workload.ops_per_second()).div_ceil(PASSES);
    let mut rng = stream(seed, 2);
    let backend = workload.backend();
    let (warmup, passes, generations) = match workload {
        Workload::XmpPaper | Workload::XmpSql => {
            let passes = (0..PASSES)
                .map(|_| {
                    xmp_sequence(n, backend, &mut rng)
                        .into_iter()
                        .map(Op::Query)
                        .collect()
                })
                .collect();
            (xmp_warmup(backend), passes, Vec::new())
        }
        Workload::AdhocDistinct => {
            let vocab = Vocab::read(&doc);
            let mut lens = vec![ADHOC_WARMUP];
            lens.extend([n; PASSES]);
            let mut passes = adhoc_sequence(&vocab, &lens, seed, &mut rng)?;
            let warmup = passes.remove(0);
            (warmup, passes, Vec::new())
        }
        Workload::ReadWrite => {
            let mut warmup = xmp_warmup(backend);
            // One SQL question: from here on every commit also carries
            // the relational shredding forward, as in any deployment
            // that has served SQL once.
            warmup.push(Op::Query(query(
                "Find all titles that contain \"XML\".",
                "Q9/good#1",
                BackendKind::Sql,
            )));
            let (timed, generations) = read_write_sequence(&xml, n, seed, &mut rng)?;
            (warmup, vec![timed; PASSES], generations)
        }
    };
    Ok(Plan {
        xml,
        warmup,
        passes,
        generations,
    })
}

impl Plan {
    /// Digest of the corpus XML.
    pub fn corpus_digest(&self) -> u64 {
        fnv1a(self.xml.as_bytes(), FNV_OFFSET)
    }

    /// Digest of every request body, warm-up and timed, in order.
    pub fn sequence_digest(&self) -> u64 {
        self.warmup
            .iter()
            .chain(self.passes.iter().flatten())
            .fold(FNV_OFFSET, |h, op| {
                let (path, body) = request(op, 0);
                fnv1a(body.as_bytes(), fnv1a(path.as_bytes(), h))
            })
    }

    /// Timed operations of one pass (every pass has as many).
    pub fn pass_len(&self) -> usize {
        self.passes.first().map_or(0, Vec::len)
    }

    /// Number of update batches in one pass.
    pub fn writes(&self) -> usize {
        self.traced()
            .iter()
            .filter(|op| matches!(op, Op::Update(_)))
            .count()
    }

    /// The timed requests the traced replay runs: the last pass's, whose
    /// server the one `/metrics` scrape reads.
    pub fn traced(&self) -> &[Op] {
        self.passes.last().map_or(&[], Vec::as_slice)
    }
}

/// The path and JSON body of `op`; `base_generation` is the server's
/// generation number of the document as loaded.
pub fn request(op: &Op, base_generation: u64) -> (String, String) {
    use server::json::Json;
    match op {
        Op::Query(q) => {
            let mut fields = vec![("question".to_string(), Json::Str(q.text.clone()))];
            if q.backend != BackendKind::Xquery {
                fields.push((
                    "backend".to_string(),
                    Json::Str(q.backend.name().to_string()),
                ));
            }
            if let Some(turn) = &q.session {
                fields.push(("session".to_string(), Json::Str(turn.id.clone())));
            }
            ("/query".to_string(), Json::Obj(fields).render())
        }
        Op::Update(u) => {
            let edits = u.edits.iter().map(edit_json).collect();
            let body = Json::Obj(vec![
                ("edits".to_string(), Json::Arr(edits)),
                (
                    "expected_generation".to_string(),
                    Json::Num((base_generation + u.generation as u64) as f64),
                ),
            ]);
            (format!("/docs/{DOC_NAME}/update"), body.render())
        }
    }
}

fn edit_json(edit: &EditSpec) -> server::json::Json {
    use server::json::Json;
    let s = |k: &str, v: &str| (k.to_string(), Json::Str(v.to_string()));
    let n = |k: &str, v: u32| (k.to_string(), Json::Num(f64::from(v)));
    let node = |node: &NewNode| {
        Json::Obj(match node {
            NewNode::Element { label } => vec![s("kind", "element"), s("label", label)],
            NewNode::Leaf { label, text } => {
                vec![s("kind", "leaf"), s("label", label), s("text", text)]
            }
            NewNode::Text { text } => vec![s("kind", "text"), s("text", text)],
            NewNode::Attribute { name, value } => {
                vec![s("kind", "attribute"), s("name", name), s("value", value)]
            }
        })
    };
    Json::Obj(match edit {
        EditSpec::InsertChild { parent, node: nn } => vec![
            s("op", "insert_child"),
            n("parent", *parent),
            ("node".to_string(), node(nn)),
        ],
        EditSpec::InsertSibling { after, node: nn } => vec![
            s("op", "insert_sibling"),
            n("after", *after),
            ("node".to_string(), node(nn)),
        ],
        EditSpec::DeleteSubtree { target } => vec![s("op", "delete_subtree"), n("target", *target)],
        EditSpec::ReplaceValue { target, value } => vec![
            s("op", "replace_value"),
            n("target", *target),
            s("value", value),
        ],
        EditSpec::RenameLabel { target, label } => vec![
            s("op", "rename_label"),
            n("target", *target),
            s("label", label),
        ],
    })
}

/// Resolve a pre-rank addressed edit against `doc`, as the store does.
pub fn resolve(edit: &EditSpec, doc: &Document) -> Result<xmldb::Edit, String> {
    let at = |pre: u32| {
        doc.node_at_pre(pre)
            .ok_or_else(|| format!("no node at pre rank {pre}"))
    };
    Ok(match edit {
        EditSpec::InsertChild { parent, node } => xmldb::Edit::InsertChild {
            parent: at(*parent)?,
            node: node.clone(),
        },
        EditSpec::InsertSibling { after, node } => xmldb::Edit::InsertSibling {
            after: at(*after)?,
            node: node.clone(),
        },
        EditSpec::DeleteSubtree { target } => xmldb::Edit::DeleteSubtree {
            target: at(*target)?,
        },
        EditSpec::ReplaceValue { target, value } => xmldb::Edit::ReplaceValue {
            target: at(*target)?,
            value: value.clone(),
        },
        EditSpec::RenameLabel { target, label } => xmldb::Edit::RenameLabel {
            target: at(*target)?,
            label: label.clone(),
        },
    })
}

/// Apply a batch to `doc`, returning the successor: the check that
/// every generated edit is valid at its generation.
pub fn apply_batch(doc: &Document, edits: &[EditSpec]) -> Result<Document, String> {
    let mut pending = doc.begin_update().map_err(|e| e.to_string())?;
    for edit in edits {
        let edit = resolve(edit, doc)?;
        pending.apply(&edit).map_err(|e| e.to_string())?;
    }
    Ok(pending.commit().0)
}

// ---------------------------------------------------------------------
// adhoc-distinct

/// Vocabulary read from the corpus.
#[derive(Debug)]
struct Vocab {
    publishers: Vec<String>,
    years: Vec<String>,
    authors: Vec<String>,
    /// Authors whose name is made of letters and spaces only. A quoted
    /// name with an initial ("Jeffrey D. Ullman") is answered statelessly
    /// but refused as a follow-up constraint, so dialogues avoid it; see
    /// `perfbench/README.md`.
    plain_authors: Vec<String>,
    surnames: Vec<String>,
    words: Vec<String>,
    journals: Vec<String>,
}

fn values(doc: &Document, label: &str) -> Vec<String> {
    let set: BTreeSet<String> = doc
        .nodes_labeled(label)
        .iter()
        .map(|&n| doc.string_value(n))
        .filter(|v| !v.is_empty() && !v.contains('"'))
        .collect();
    set.into_iter().collect()
}

impl Vocab {
    /// Publishers, years, authors, surnames, title words and journals of
    /// `doc`, each sorted and distinct.
    fn read(doc: &Document) -> Vocab {
        let authors = values(doc, "author");
        let surnames: BTreeSet<String> = authors
            .iter()
            .filter_map(|a| a.split_whitespace().last())
            .filter(|s| s.len() > 2 && s.chars().all(char::is_alphabetic))
            .map(str::to_string)
            .collect();
        let words: BTreeSet<String> = values(doc, "title")
            .iter()
            .flat_map(|t| t.split_whitespace())
            .filter(|w| w.len() >= 5 && w.chars().all(char::is_alphabetic))
            .map(str::to_string)
            .collect();
        Vocab {
            publishers: values(doc, "publisher"),
            years: values(doc, "year"),
            plain_authors: authors
                .iter()
                .filter(|a| a.chars().all(|c| c.is_alphabetic() || c == ' '))
                .cloned()
                .collect(),
            authors,
            surnames: surnames.into_iter().collect(),
            words: words.into_iter().collect(),
            journals: values(doc, "journal"),
        }
    }
}

/// In-grammar templates (Table 6 forms over corpus vocabulary).
const IN_GRAMMAR: [&str; 14] = [
    "Return the title of every book published by {P} after {Y}.",
    "Return the year and title of every book published by {P} before {Y}.",
    "Return the title and the year of each book published by {P} after {Y}.",
    "Return every book published by {P} before {Y}.",
    "Return the title of every book published by {P} after {Y}, sorted by title.",
    "Return the titles of books, where the author of the book contains \"{S}\".",
    "Find all titles that contain \"{W}\".",
    "Return the year of every book, where the title of the book contains \"{W}\".",
    "Return the author of every book, where the title of the book contains \"{W}\".",
    "Find all the books written by \"{A}\" published after {Y}.",
    "Find all the books published by {P} before {Y} written by \"{A}\".",
    "Return the title of every book written by \"{A}\".",
    "Return the title of every article, where the journal of the article is \"{J}\".",
    "Find the titles of all articles, where the author of the article contains \"{S}\".",
];

/// Out-of-grammar templates: the user-study pools' refused forms,
/// widened with an author so the space of distinct questions is large.
const OUT_OF_GRAMMAR: [&str; 5] = [
    "Show me the books by \"{A}\" put out by {P} after {Y}.",
    "List books by \"{A}\" published since {Y}, including their year and title.",
    "Find the titles of books from {P} whose author names include the string \"{A}\".",
    "Give the minimum publication year per book title by \"{A}\" from {P}.",
    "Sort the books written by \"{A}\" after {Y} by title.",
];

fn fill(template: &str, vocab: &Vocab, rng: &mut SplitMix64) -> String {
    let mut out = template.to_string();
    for (slot, pool) in [
        ("{P}", &vocab.publishers),
        ("{Y}", &vocab.years),
        ("{A}", &vocab.authors),
        ("{S}", &vocab.surnames),
        ("{W}", &vocab.words),
        ("{J}", &vocab.journals),
    ] {
        if out.contains(slot) && !pool.is_empty() {
            let value: &String = rng.pick(pool);
            out = out.replace(slot, value);
        }
    }
    out
}

/// Adhoc operations in segments of `lens`: distinct questions (no
/// self-contained question repeats in any segment or across them) with
/// about 2% of operations opening a 2–3-turn dialogue. A dialogue never
/// straddles two segments, since each segment goes to its own server.
fn adhoc_sequence(
    vocab: &Vocab,
    lens: &[usize],
    seed: u64,
    rng: &mut SplitMix64,
) -> Result<Vec<Vec<Op>>, String> {
    let limit = 100 * lens.iter().sum::<usize>() + 1000;
    let mut seen = HashSet::new();
    let mut segments = Vec::with_capacity(lens.len());
    let mut dialogues = 0usize;
    let mut attempts = 0usize;
    for &n in lens {
        let mut ops = Vec::with_capacity(n);
        while ops.len() < n {
            attempts += 1;
            if attempts > limit {
                return Err("adhoc generator ran out of distinct questions".to_string());
            }
            if n - ops.len() >= 3 && rng.chance(DIALOGUE_SHARE) {
                let turns = dialogue(vocab, rng, seed, dialogues, true);
                if seen.insert(turns[0].text.clone()) {
                    dialogues += 1;
                    ops.extend(turns.into_iter().map(Op::Query));
                }
                continue;
            }
            // Draw the category once and retry within it, so templates
            // that run out of distinct fillings do not shift the refused
            // share.
            let (templates, kind) = if rng.chance(REFUSED_SHARE) {
                (&OUT_OF_GRAMMAR[..], "out-of-grammar")
            } else {
                (&IN_GRAMMAR[..], "in-grammar")
            };
            loop {
                let i = rng.below(templates.len());
                let text = fill(templates[i], vocab, rng);
                if seen.insert(text.clone()) {
                    let class = format!("{kind}#{}", i + 1);
                    ops.push(Op::Query(query(text, class, BackendKind::Xquery)));
                    break;
                }
                attempts += 1;
                if attempts > limit {
                    return Err("adhoc generator ran out of distinct questions".to_string());
                }
            }
        }
        segments.push(ops);
    }
    Ok(segments)
}

/// A dialogue in the `userstudy::dialogue` forms, over corpus names:
/// turn 1 self-contained, later turns follow-ups whose oracle is the
/// stacked sentence.
fn dialogue(
    vocab: &Vocab,
    rng: &mut SplitMix64,
    seed: u64,
    n: usize,
    third_turn: bool,
) -> Vec<Query> {
    let id = format!("s{seed}-{n}");
    let turn = |number: u32, text: String, oracle: String| Query {
        text,
        class: format!("dialogue/turn{number}"),
        backend: BackendKind::Xquery,
        session: Some(Turn {
            id: id.clone(),
            number,
        }),
        oracle_text: oracle,
        generation: 0,
        probe: None,
    };
    let author = rng.pick(&vocab.plain_authors).clone();
    let year = rng.pick(&vocab.years).clone();
    if rng.chance(0.5) {
        let first = format!("List all the books written by \"{author}\".");
        let mut turns = vec![
            turn(1, first.clone(), first),
            turn(
                2,
                format!("Of those, which were published after {year}?"),
                format!("List all the books written by \"{author}\" published after {year}."),
            ),
        ];
        if third_turn && rng.chance(0.5) {
            let other = rng.pick(&vocab.plain_authors).clone();
            turns.push(turn(
                3,
                format!("What about by \"{other}\"?"),
                format!("List all the books written by \"{other}\" published after {year}."),
            ));
        }
        turns
    } else {
        let publisher = rng.pick(&vocab.publishers).clone();
        let first = format!("Find all the books published by {publisher} after {year}.");
        vec![
            turn(1, first.clone(), first),
            turn(
                2,
                format!("Which of them were written by \"{author}\"?"),
                format!(
                    "Find all the books published by {publisher} after {year} written by \"{author}\"."
                ),
            ),
        ]
    }
}

// ---------------------------------------------------------------------
// read-write

/// The text child of the `label` child of `entry`.
fn text_of_child(doc: &Document, entry: NodeId, label: &str) -> Option<NodeId> {
    let leaf = doc
        .element_children(entry)
        .find(|&c| doc.label(c) == label)?;
    doc.children(leaf)
        .find(|&c| doc.node(c).kind == NodeKind::Text)
}

/// The book whose title is `title`, if present.
fn book_titled(doc: &Document, title: &str) -> Option<NodeId> {
    doc.nodes_labeled("title")
        .iter()
        .find(|&&t| doc.string_value(t) == title)
        .and_then(|&t| doc.parent(t))
}

/// Apply `edits` to the model, record the new generation and the batch.
fn commit(
    model: &mut Document,
    ops: &mut Vec<Op>,
    generations: &mut Vec<String>,
    edits: Vec<EditSpec>,
) -> Result<(), String> {
    let generation = generations.len();
    *model = apply_batch(model, &edits)
        .map_err(|e| format!("generated edit invalid at generation {generation}: {e}"))?;
    generations.push(model.to_xml(model.root()));
    ops.push(Op::Update(Update { edits, generation }));
    Ok(())
}

/// `n` operations: every [`WRITE_EVERY`]-th is an update batch of 1–4
/// edits, the others `xmp-paper` reads. Writes cycle through value
/// replacements (a book's year or publisher), inserting a book, more
/// value replacements, and deleting the book inserted a cycle earlier.
/// Pre ranks can only address nodes of the edited generation, so a book
/// is inserted as two back-to-back batches: an empty `<book>`, then its
/// title, author, publisher and year. No read sees the empty book: with
/// a `book` that has no `title`, schema-free queries relating books and
/// titles (`List books with title and authors.`) grow past the tuple
/// budget, and whether the 2 s deadline or the budget trips first
/// depends on the host's speed. Each insert and delete is followed by a
/// read-your-write probe on the book's unique title.
fn read_write_sequence(
    xml: &str,
    n: usize,
    seed: u64,
    rng: &mut SplitMix64,
) -> Result<(Vec<Op>, Vec<String>), String> {
    let mut model = Document::parse_str(xml).map_err(|e| e.to_string())?;
    let original: Vec<NodeId> = model.nodes_labeled("book").to_vec();
    let vocab = Vocab::read(&model);
    let mut ops = Vec::with_capacity(n);
    // Reads are placeholders until the pattern is laid out, then filled
    // from a stratified sequence of exactly their number, so every seed
    // reads the same classes in the same proportions.
    let mut read_slots = Vec::new();
    let mut generations = Vec::new();
    let mut inserted: Vec<String> = Vec::new();
    let mut probe: Option<(String, bool)> = None;
    let mut books = 0usize;
    let mut writes = 0usize;

    let value_edit = |model: &Document, rng: &mut SplitMix64| -> Result<EditSpec, String> {
        let book = *rng.pick(&original);
        let (label, value) = if rng.chance(0.5) {
            ("year", rng.pick(&vocab.years).clone())
        } else {
            ("publisher", rng.pick(&vocab.publishers).clone())
        };
        let text = text_of_child(model, book, label).ok_or("book without a value leaf")?;
        Ok(EditSpec::ReplaceValue {
            target: model.pre(text),
            value,
        })
    };
    while ops.len() < n {
        // Every DIALOGUE_EVERY-th write cycle opens with a two-turn
        // dialogue; both turns fall before the next write, because a
        // commit retires the session's document generation.
        if ops.len() % (WRITE_EVERY * DIALOGUE_EVERY) == 0
            && probe.is_none()
            && ops.len() + WRITE_EVERY <= n
        {
            let generation = generations.len();
            let turns = dialogue(&vocab, rng, seed, ops.len(), false);
            for mut turn in turns {
                turn.generation = generation;
                ops.push(Op::Query(turn));
            }
            continue;
        }
        if ops.len() % WRITE_EVERY != WRITE_EVERY - 1 {
            let mut q = match probe.take() {
                Some((title, present)) => {
                    let token = title.rsplit(' ').next().unwrap_or_default().to_string();
                    let mut q = query(
                        format!("Find all titles that contain \"{token}\"."),
                        "probe",
                        BackendKind::Xquery,
                    );
                    q.probe = Some(present.then_some(title));
                    q
                }
                None => {
                    read_slots.push(ops.len());
                    query(String::new(), String::new(), BackendKind::Xquery)
                }
            };
            q.generation = generations.len();
            ops.push(Op::Query(q));
            continue;
        }
        writes += 1;
        let mut edits = Vec::new();
        match writes % 4 {
            1 if ops.len() + 2 < n => {
                books += 1;
                let title = format!("Probe Edition Pb{seed}x{books:04}");
                let root = model.pre(model.root());
                let empty = vec![EditSpec::InsertChild {
                    parent: root,
                    node: NewNode::Element {
                        label: "book".to_string(),
                    },
                }];
                commit(&mut model, &mut ops, &mut generations, empty)?;
                // Appended as the root's last child: the last element.
                let book = *model
                    .nodes_labeled("book")
                    .last()
                    .ok_or("inserted book not found")?;
                let parent = model.pre(book);
                for (label, text) in [
                    ("title", title.clone()),
                    ("author", rng.pick(&vocab.authors).clone()),
                    ("publisher", rng.pick(&vocab.publishers).clone()),
                    ("year", rng.pick(&vocab.years).clone()),
                ] {
                    edits.push(EditSpec::InsertChild {
                        parent,
                        node: NewNode::Leaf {
                            label: label.to_string(),
                            text,
                        },
                    });
                }
                commit(&mut model, &mut ops, &mut generations, edits)?;
                probe = Some((title.clone(), true));
                inserted.push(title);
                continue;
            }
            3 if inserted.len() > 1 => {
                let title = inserted.remove(0);
                let book = book_titled(&model, &title).ok_or("inserted book not found")?;
                edits.push(EditSpec::DeleteSubtree {
                    target: model.pre(book),
                });
                probe = Some((title, false));
            }
            _ => {}
        }
        let extra = if edits.is_empty() {
            1 + rng.below(2)
        } else {
            rng.below(2)
        };
        for _ in 0..extra {
            edits.push(value_edit(&model, rng)?);
        }
        commit(&mut model, &mut ops, &mut generations, edits)?;
    }
    let reads = xmp_sequence(read_slots.len(), BackendKind::Xquery, rng);
    for (slot, mut read) in read_slots.into_iter().zip(reads) {
        if let Op::Query(placeholder) = &ops[slot] {
            read.generation = placeholder.generation;
        }
        ops[slot] = Op::Query(read);
    }
    Ok((ops, generations))
}
