//! Loopback integration tests: a real listener, real sockets, real
//! worker threads — asserting the serving contracts (fidelity to the
//! in-process pipeline, explicit overload, graceful drain) plus the
//! multi-document store surface (`"doc"` routing, `GET`/`PUT`/`DELETE
//! /docs`, hot reload under concurrent load, typed eviction errors).

use nalix::Nalix;
use server::http::{read_response, RawResponse};
use server::json::Json;
use server::{Server, ServerConfig};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use store::{DocumentStore, StoreConfig};
use xquery::EvalBudget;

/// A config suitable for tests: ephemeral port, small pool.
fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_capacity: 16,
        ..ServerConfig::default()
    }
}

/// The store every test server fronts: the three builtins, `bib`
/// default.
fn test_store() -> Arc<DocumentStore> {
    Arc::new(DocumentStore::with_builtins(StoreConfig::default()))
}

/// Sends one raw HTTP request on a fresh connection and returns
/// (status line, body). Reads the `Content-Length`-framed response
/// rather than to EOF: the server keeps connections alive by default
/// now, so EOF would only come after the idle timeout.
fn send(addr: SocketAddr, raw: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    s.write_all(raw.as_bytes()).expect("write");
    let mut reader = BufReader::new(s);
    let response = read_response(&mut reader).expect("read response");
    (response.status_line.clone(), response.body_str())
}

/// A persistent keep-alive client: one connection, many framed
/// request/response exchanges.
struct KeepAliveClient {
    reader: BufReader<TcpStream>,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> Self {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        KeepAliveClient {
            reader: BufReader::new(s),
        }
    }

    fn write_raw(&mut self, raw: &str) {
        self.reader
            .get_mut()
            .write_all(raw.as_bytes())
            .expect("write");
    }

    fn read_one(&mut self) -> RawResponse {
        read_response(&mut self.reader).expect("read response")
    }

    /// True when the server has closed the connection (clean EOF).
    fn at_eof(&mut self) -> bool {
        let mut byte = [0u8; 1];
        matches!(self.reader.read(&mut byte), Ok(0))
    }
}

fn query_request(question: &str) -> String {
    let body = format!("{{\"question\": {question:?}}}");
    format!(
        "POST /query HTTP/1.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
}

fn post_query(addr: SocketAddr, question: &str) -> (String, String) {
    let body = format!("{{\"question\": {:?}}}", question);
    post(addr, "/query", &body)
}

fn post_query_on(addr: SocketAddr, doc: &str, question: &str) -> (String, String) {
    let body = format!("{{\"question\": {:?}, \"doc\": {:?}}}", question, doc);
    post(addr, "/query", &body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    send(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ),
    )
}

fn put_doc(addr: SocketAddr, name: &str, body: &str) -> (String, String) {
    send(
        addr,
        &format!(
            "PUT /docs/{name} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ),
    )
}

fn delete_doc(addr: SocketAddr, name: &str) -> (String, String) {
    send(addr, &format!("DELETE /docs/{name} HTTP/1.1\r\n\r\n"))
}

/// Runs `f` against a serving nalixd (over `store`) and tears the
/// server down after.
fn with_store_server<F, R>(
    store: Arc<DocumentStore>,
    config: ServerConfig,
    f: F,
) -> (R, server::ServeReport)
where
    F: FnOnce(SocketAddr) -> R + Send,
    R: Send,
{
    let server = Server::bind(store, config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let mut out = None;
    let mut report = None;
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            // Shut down even if `f` panics: otherwise `serve()` below
            // never returns and the whole test binary hangs instead of
            // reporting the panic.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
            handle.shutdown();
            match r {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        });
        report = Some(server.serve().expect("serve"));
        out = Some(worker.join().expect("client panicked"));
    });
    (out.expect("client result"), report.expect("serve report"))
}

fn with_server<F, R>(config: ServerConfig, f: F) -> (R, server::ServeReport)
where
    F: FnOnce(SocketAddr) -> R + Send,
    R: Send,
{
    with_store_server(test_store(), config, f)
}

fn answers_of(body: &str) -> Vec<String> {
    Json::parse(body)
        .expect("valid JSON body")
        .get("answers")
        .and_then(Json::as_array)
        .expect("answers array")
        .iter()
        .map(|v| v.as_str().expect("string answer").to_string())
        .collect()
}

/// The serving contract: answers over HTTP are bit-identical to the
/// in-process `Nalix::answer_full`, under 8-way client concurrency.
#[test]
fn concurrent_clients_get_in_process_answers() {
    let questions = [
        "Return every title.",
        "Return the authors of every book.",
        "Return every publisher.",
        "Return the price of every book.",
        "Return every title.",
        "Return the authors of every book.",
        "Return every publisher.",
        "Return the price of every book.",
    ];

    // Ground truth, computed in-process on an identical pipeline.
    let oracle = Nalix::new(xmldb::datasets::bib::bib());
    let expected: Vec<Vec<String>> = questions
        .iter()
        .map(|q| {
            oracle
                .answer_full(q, &EvalBudget::default())
                .expect("oracle answers")
                .values
        })
        .collect();

    let (bodies, report) = with_server(test_config(), |addr| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = questions
                .iter()
                .map(|q| scope.spawn(move || post_query(addr, q)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    });

    for ((status, body), expected_values) in bodies.iter().zip(&expected) {
        assert_eq!(status, "HTTP/1.1 200 OK", "body: {body}");
        let parsed = Json::parse(body).expect("valid JSON body");
        assert_eq!(
            &answers_of(body),
            expected_values,
            "HTTP answers differ from in-process"
        );
        assert!(parsed.get("xquery").and_then(Json::as_str).is_some());
        // The default document is reported back.
        assert_eq!(parsed.get("doc").and_then(Json::as_str), Some("bib"));
    }
    assert_eq!(report.served, 8);
    assert_eq!(report.shed, 0);
}

/// Pipeline rejections surface as stable machine-readable codes with
/// the right statuses.
#[test]
fn error_codes_reach_the_wire() {
    let ((unknown, empty, not_found, wrong_method), _report) = with_server(test_config(), |addr| {
        (
            post_query(addr, "Frobnicate the quuxes zzyzx."),
            post_query(addr, ""),
            send(addr, "GET /nope HTTP/1.1\r\n\r\n"),
            send(addr, "GET /query HTTP/1.1\r\n\r\n"),
        )
    });
    assert_eq!(unknown.0, "HTTP/1.1 422 Unprocessable Entity");
    assert!(
        unknown.1.contains("\"code\":\"classify.unknown_term\"")
            || unknown.1.contains("\"code\":\"parse.ungrammatical\"")
            || unknown.1.contains("\"code\":\"validate.rejected\""),
        "body: {}",
        unknown.1
    );
    assert_eq!(empty.0, "HTTP/1.1 400 Bad Request");
    assert!(empty.1.contains("\"code\":\"http.bad_request\""));
    assert_eq!(not_found.0, "HTTP/1.1 404 Not Found");
    assert!(not_found.1.contains("\"code\":\"http.not_found\""));
    assert_eq!(wrong_method.0, "HTTP/1.1 405 Method Not Allowed");
    assert!(wrong_method
        .1
        .contains("\"code\":\"http.method_not_allowed\""));
}

/// Health, metrics, and batch endpoints answer sensibly.
#[test]
fn auxiliary_endpoints_work() {
    let ((health, metrics, batch), _report) = with_server(test_config(), |addr| {
        let batch_body = r#"{"questions": ["Return every title.", "Zzyzx."]}"#;
        (
            send(addr, "GET /health HTTP/1.1\r\n\r\n"),
            send(addr, "GET /metrics HTTP/1.1\r\n\r\n"),
            post(addr, "/batch", batch_body),
        )
    });
    assert_eq!(health.0, "HTTP/1.1 200 OK");
    assert!(health.1.contains("\"status\":\"ok\""), "body: {}", health.1);
    assert_eq!(metrics.0, "HTTP/1.1 200 OK");
    assert!(
        metrics.1.contains("nalix_stage_spans_total"),
        "prometheus body: {}",
        metrics.1
    );
    // The store counter families are exported even before any store
    // operation happened.
    assert!(
        metrics.1.contains("store_loads"),
        "prometheus body: {}",
        metrics.1
    );
    assert_eq!(batch.0, "HTTP/1.1 200 OK");
    let parsed = Json::parse(&batch.1).expect("valid batch JSON");
    let results = parsed
        .get("results")
        .and_then(Json::as_array)
        .expect("results array");
    assert_eq!(results.len(), 2);
    assert!(results[0].get("answers").is_some());
    assert!(results[1].get("error").is_some());
}

/// The admin surface round-trips: list, load a second corpus, query
/// it, reload it, evict it, and observe the typed 404 afterwards.
#[test]
fn docs_admin_surface_round_trips() {
    let (out, _report) = with_server(test_config(), |addr| {
        let listing_before = send(addr, "GET /docs HTTP/1.1\r\n\r\n");
        let load = put_doc(addr, "movies", "");
        let query = post_query_on(
            addr,
            "movies",
            "Find all the movies directed by Ron Howard.",
        );
        let reload = put_doc(addr, "movies", r#"{"source": "movies"}"#);
        let listing_after = send(addr, "GET /docs HTTP/1.1\r\n\r\n");
        let evict = delete_doc(addr, "movies");
        let after_evict = post_query_on(addr, "movies", "Return every title.");
        let evict_default = delete_doc(addr, "bib");
        (
            listing_before,
            load,
            query,
            reload,
            listing_after,
            evict,
            after_evict,
            evict_default,
        )
    });
    let (listing_before, load, query, reload, listing_after, evict, after_evict, evict_default) =
        out;

    assert_eq!(listing_before.0, "HTTP/1.1 200 OK");
    let parsed = Json::parse(&listing_before.1).expect("docs JSON");
    assert_eq!(parsed.get("default").and_then(Json::as_str), Some("bib"));
    assert_eq!(
        parsed.get("docs").and_then(Json::as_array).map(|d| d.len()),
        Some(3)
    );

    assert_eq!(load.0, "HTTP/1.1 200 OK", "body: {}", load.1);
    let parsed = Json::parse(&load.1).expect("put JSON");
    assert_eq!(parsed.get("generation").and_then(Json::as_u64), Some(1));
    // `with_builtins` registers movies but never loads it, so this PUT
    // is a first load, not a reload.
    assert!(load.1.contains("\"reloaded\":false"), "body: {}", load.1);

    assert_eq!(query.0, "HTTP/1.1 200 OK", "body: {}", query.1);
    let parsed = Json::parse(&query.1).expect("query JSON");
    assert_eq!(parsed.get("doc").and_then(Json::as_str), Some("movies"));
    assert!(!answers_of(&query.1).is_empty());

    assert_eq!(reload.0, "HTTP/1.1 200 OK", "body: {}", reload.1);
    let parsed = Json::parse(&reload.1).expect("reload JSON");
    assert_eq!(parsed.get("generation").and_then(Json::as_u64), Some(2));
    assert!(reload.1.contains("\"reloaded\":true"), "body: {}", reload.1);

    assert_eq!(listing_after.0, "HTTP/1.1 200 OK");
    assert!(
        listing_after.1.contains("\"name\":\"movies\""),
        "body: {}",
        listing_after.1
    );

    assert_eq!(evict.0, "HTTP/1.1 200 OK", "body: {}", evict.1);
    assert!(evict.1.contains("\"evicted\":\"movies\""));

    // Typed, 404-mapped error after eviction — not a panic, not a 500.
    assert_eq!(after_evict.0, "HTTP/1.1 404 Not Found");
    assert!(
        after_evict
            .1
            .contains("\"code\":\"store.unknown_document\""),
        "body: {}",
        after_evict.1
    );

    assert_eq!(evict_default.0, "HTTP/1.1 400 Bad Request");
    assert!(
        evict_default
            .1
            .contains("\"code\":\"store.default_protected\""),
        "body: {}",
        evict_default.1
    );
}

/// Two corpora served from one process answer independently and
/// bit-identically to their in-process oracles; a batch pins one
/// snapshot via its `"doc"` field.
#[test]
fn per_document_routing_matches_oracles() {
    let bib_q = "Return every title.";
    let movies_q = "Find all the movies directed by Ron Howard.";
    let bib_oracle = Nalix::new(xmldb::datasets::bib::bib())
        .ask(bib_q)
        .expect("bib oracle");
    let movies_oracle = Nalix::new(xmldb::datasets::movies::movies_and_books())
        .ask(movies_q)
        .expect("movies oracle");

    let ((bib_reply, movies_reply, batch_reply), _report) = with_server(test_config(), |addr| {
        (
            post_query_on(addr, "bib", bib_q),
            post_query_on(addr, "movies", movies_q),
            post(
                addr,
                "/batch",
                &format!("{{\"questions\": [{movies_q:?}], \"doc\": \"movies\"}}"),
            ),
        )
    });

    assert_eq!(bib_reply.0, "HTTP/1.1 200 OK", "body: {}", bib_reply.1);
    assert_eq!(answers_of(&bib_reply.1), bib_oracle);
    assert_eq!(
        movies_reply.0, "HTTP/1.1 200 OK",
        "body: {}",
        movies_reply.1
    );
    assert_eq!(answers_of(&movies_reply.1), movies_oracle);

    assert_eq!(batch_reply.0, "HTTP/1.1 200 OK");
    let parsed = Json::parse(&batch_reply.1).expect("batch JSON");
    assert_eq!(parsed.get("doc").and_then(Json::as_str), Some("movies"));
    let results = parsed
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    let batch_answers: Vec<String> = results[0]
        .get("answers")
        .and_then(Json::as_array)
        .expect("answers")
        .iter()
        .map(|v| v.as_str().expect("string").to_string())
        .collect();
    assert_eq!(batch_answers, movies_oracle);
}

/// Hot reload under concurrent load: 8 clients hammer two corpora
/// while the server hot-reloads one of them; every request completes
/// (zero transport errors) and every answer is bit-identical to the
/// oracle — whichever snapshot generation it observed.
#[test]
fn hot_reload_under_concurrent_load_is_invisible() {
    let bib_q = "Return every title.";
    let movies_q = "Find all the movies directed by Ron Howard.";
    let bib_oracle = Nalix::new(xmldb::datasets::bib::bib())
        .ask(bib_q)
        .expect("bib oracle");
    let movies_oracle = Nalix::new(xmldb::datasets::movies::movies_and_books())
        .ask(movies_q)
        .expect("movies oracle");

    let config = ServerConfig {
        workers: 8,
        queue_capacity: 64,
        ..test_config()
    };
    let (replies, report) = with_store_server(test_store(), config, |addr| {
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..8)
                .map(|i| {
                    scope.spawn(move || {
                        let (doc, q) = if i % 2 == 0 {
                            ("bib", bib_q)
                        } else {
                            ("movies", movies_q)
                        };
                        (0..5)
                            .map(|_| (doc, post_query_on(addr, doc, q)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let reloader = scope.spawn(move || {
                for _ in 0..3 {
                    std::thread::sleep(Duration::from_millis(30));
                    let (status, body) = put_doc(addr, "movies", "");
                    assert_eq!(status, "HTTP/1.1 200 OK", "reload failed: {body}");
                }
            });
            let replies: Vec<(_, _)> = clients
                .into_iter()
                .flat_map(|c| c.join().expect("client"))
                .collect();
            reloader.join().expect("reloader");
            replies
        })
    });

    assert_eq!(replies.len(), 40, "zero dropped requests");
    let mut generations_seen = std::collections::BTreeSet::new();
    for (doc, (status, body)) in &replies {
        assert_eq!(status, "HTTP/1.1 200 OK", "body: {body}");
        let expected = if *doc == "bib" {
            &bib_oracle
        } else {
            &movies_oracle
        };
        assert_eq!(&answers_of(body), expected, "doc {doc}: answers diverged");
        if *doc == "movies" {
            let parsed = Json::parse(body).expect("JSON");
            generations_seen.insert(parsed.get("generation").and_then(Json::as_u64));
        }
    }
    // 0 shed: every request was admitted and served.
    assert_eq!(report.shed, 0);
    // The merged final snapshot accounts for the retired generations'
    // work too: all 40 queries plus 3 reload spans are visible.
    assert!(report.snapshot.queries_total() >= 40);
    assert!(report.snapshot.stage(obs::Stage::StoreReload).spans() >= 2);
    drop(generations_seen); // which generations were observed is timing-dependent
}

/// Overload contract: with one slow worker and a tiny queue, excess
/// connections are shed with 503 + Retry-After instead of queueing
/// unboundedly — and the server keeps answering afterwards.
#[test]
fn overload_sheds_with_503_and_retry_after() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 1,
        debug_handler_delay: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    };
    let ((sheds, ok_after), report) = with_server(config, |addr| {
        // Fire 8 concurrent requests at a server that can hold at most
        // 2 (1 in-flight + 1 queued): at least 6 must be shed.
        let replies = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(move || {
                        // `Connection: close` so read-to-EOF delimits
                        // the reply without waiting for the idle
                        // timeout on the admitted (200) connections.
                        let mut s = TcpStream::connect(addr).expect("connect");
                        s.write_all(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
                            .expect("write");
                        let mut reply = String::new();
                        s.read_to_string(&mut reply).expect("read");
                        reply
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect::<Vec<_>>()
        });
        let sheds: Vec<String> = replies
            .iter()
            .filter(|r| r.starts_with("HTTP/1.1 503"))
            .cloned()
            .collect();
        // After the burst clears, the server still answers.
        std::thread::sleep(Duration::from_millis(700));
        let ok_after = send(addr, "GET /health HTTP/1.1\r\n\r\n");
        (sheds, ok_after)
    });
    assert!(
        sheds.len() >= 6,
        "expected at least 6 shed responses, got {}",
        sheds.len()
    );
    for shed in &sheds {
        assert!(shed.contains("Retry-After: 1\r\n"), "reply: {shed}");
        assert!(
            shed.contains("\"code\":\"http.overloaded\""),
            "reply: {shed}"
        );
    }
    assert_eq!(ok_after.0, "HTTP/1.1 200 OK");
    assert_eq!(report.shed, sheds.len() as u64);
}

/// Drain contract: shutdown during an in-flight request lets that
/// request complete with a full 200, and the listener then refuses new
/// connections.
#[test]
fn graceful_drain_completes_in_flight_requests() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        debug_handler_delay: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    };
    let server = Server::bind(test_store(), config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    let mut in_flight_reply = None;
    std::thread::scope(|scope| {
        let client = scope.spawn(move || {
            let body = r#"{"question": "Return every title."}"#;
            let mut s = TcpStream::connect(addr).expect("connect");
            write!(
                s,
                "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .expect("write");
            let mut reply = String::new();
            s.read_to_string(&mut reply).expect("read");
            reply
        });
        let stopper = scope.spawn(move || {
            // Give the request time to be admitted, then shut down
            // while the (delayed) handler is still working on it.
            std::thread::sleep(Duration::from_millis(150));
            handle.shutdown();
        });
        let report = server.serve().expect("serve");
        stopper.join().expect("stopper");
        in_flight_reply = Some(client.join().expect("client"));
        assert_eq!(report.served, 1, "in-flight request must be served");
    });

    let reply = in_flight_reply.expect("reply");
    assert!(
        reply.starts_with("HTTP/1.1 200 OK"),
        "in-flight request must complete during drain; got: {reply}"
    );
    // serve() has returned, so the listener is gone: new connections
    // must be refused (or reset), not silently queued.
    assert!(
        TcpStream::connect(addr).is_err(),
        "post-drain connections must be refused"
    );
}

/// Evicting a document *between* a client's requests mid-traffic
/// yields the typed 404 on the next request, never a panic or a
/// connection reset (the DELETE and the queries race freely here).
#[test]
fn eviction_mid_traffic_is_a_typed_error() {
    let store = test_store();
    let (outcomes, _report) = with_store_server(Arc::clone(&store), test_config(), |addr| {
        // Warm the document, then race queries against an eviction.
        let (status, body) = put_doc(addr, "dblp", "");
        assert_eq!(status, "HTTP/1.1 200 OK", "body: {body}");
        std::thread::scope(|scope| {
            let queriers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        (0..6)
                            .map(|_| post_query_on(addr, "dblp", "Return every year."))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let evictor = scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                delete_doc(addr, "dblp")
            });
            let outcomes: Vec<(String, String)> = queriers
                .into_iter()
                .flat_map(|q| q.join().expect("querier"))
                .collect();
            let (status, body) = evictor.join().expect("evictor");
            assert_eq!(status, "HTTP/1.1 200 OK", "evict failed: {body}");
            outcomes
        })
    });
    assert_eq!(outcomes.len(), 24, "every request got a response");
    for (status, body) in &outcomes {
        // Before the eviction: 200s. After: typed 404s. Nothing else.
        assert!(
            status == "HTTP/1.1 200 OK"
                || (status == "HTTP/1.1 404 Not Found"
                    && body.contains("\"code\":\"store.unknown_document\"")),
            "unexpected outcome: {status} {body}"
        );
    }
}

/// Keep-alive contract: one connection, three pipelined requests
/// written back-to-back, three responses read back strictly in order,
/// each byte-identical in substance to the in-process oracle.
#[test]
fn keepalive_pipelines_in_order_and_matches_oracle() {
    let q1 = "Return every title.";
    let q2 = "Return every publisher.";
    let oracle = Nalix::new(xmldb::datasets::bib::bib());
    let expected1 = oracle.ask(q1).expect("oracle q1");
    let expected2 = oracle.ask(q2).expect("oracle q2");

    let ((r1, r2, r3), report) = with_server(test_config(), |addr| {
        let mut client = KeepAliveClient::connect(addr);
        // All three requests hit the socket before any response is
        // read: the loop must answer them one at a time, in order.
        let pipelined = format!(
            "{}{}GET /health HTTP/1.1\r\n\r\n",
            query_request(q1),
            query_request(q2)
        );
        client.write_raw(&pipelined);
        let r1 = client.read_one();
        let r2 = client.read_one();
        let r3 = client.read_one();
        (r1, r2, r3)
    });

    assert_eq!(r1.status_line, "HTTP/1.1 200 OK", "body: {}", r1.body_str());
    assert_eq!(answers_of(&r1.body_str()), expected1, "first answer");
    assert_eq!(r2.status_line, "HTTP/1.1 200 OK", "body: {}", r2.body_str());
    assert_eq!(answers_of(&r2.body_str()), expected2, "second answer");
    assert_eq!(r3.status_line, "HTTP/1.1 200 OK");
    assert!(r3.body_str().contains("\"status\":\"ok\""));
    // Keep-alive responses advertise it.
    assert_eq!(r1.header("connection"), Some("keep-alive"));

    assert_eq!(report.served, 3, "one connection, three requests");
    assert_eq!(report.shed, 0);
    assert_eq!(report.snapshot.counter(obs::Counter::HttpRequests), 3);
    assert_eq!(
        report.snapshot.counter(obs::Counter::HttpKeepaliveReuse),
        2,
        "requests 2 and 3 reused the connection"
    );
}

/// `Connection: close` is honored: the response carries it back and
/// the server closes cleanly right after.
#[test]
fn connection_close_is_honored() {
    let (_, report) = with_server(test_config(), |addr| {
        let mut client = KeepAliveClient::connect(addr);
        client.write_raw("GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
        let response = client.read_one();
        assert_eq!(response.status_line, "HTTP/1.1 200 OK");
        assert_eq!(response.header("connection"), Some("close"));
        assert!(client.at_eof(), "server must close after the response");
    });
    assert_eq!(report.served, 1);
    assert_eq!(
        report.snapshot.counter(obs::Counter::HttpKeepaliveReuse),
        0,
        "a closed connection is never reused"
    );
}

/// Idle keep-alive connections are closed by the server: silently
/// (no response bytes) when nothing was sent, and after the idle
/// timeout when a previous exchange completed.
#[test]
fn idle_keepalive_connections_time_out() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..test_config()
    };
    let (_, report) = with_server(config, |addr| {
        // An exchanged-then-idle connection: closed after the timeout.
        let mut exchanged = KeepAliveClient::connect(addr);
        exchanged.write_raw("GET /health HTTP/1.1\r\n\r\n");
        let response = exchanged.read_one();
        assert_eq!(response.status_line, "HTTP/1.1 200 OK");
        // A connection that never sends a byte: also reaped, silently.
        let mut silent = KeepAliveClient::connect(addr);
        assert!(
            exchanged.at_eof(),
            "idle connection must be closed by the server"
        );
        assert!(
            silent.at_eof(),
            "zero-byte connection must be closed silently"
        );
    });
    assert_eq!(report.served, 1);
    assert_eq!(
        report.snapshot.counter(obs::Counter::HttpTimeouts),
        0,
        "idle reaping is not a 408"
    );
}

/// Overload during keep-alive: a connection that already completed an
/// exchange gets `503` + `Retry-After` on its next request when the
/// queue is full, and is then closed.
#[test]
fn shed_during_keepalive_answers_503_and_closes() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 1,
        debug_handler_delay: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    };
    let (_, report) = with_server(config, |addr| {
        // Establish a keep-alive connection with one exchange while
        // the server is idle.
        let mut client = KeepAliveClient::connect(addr);
        client.write_raw("GET /health HTTP/1.1\r\n\r\n");
        assert_eq!(client.read_one().status_line, "HTTP/1.1 200 OK");
        // Saturate: one request in flight (slow worker), one queued.
        let mut busy = KeepAliveClient::connect(addr);
        busy.write_raw("GET /health HTTP/1.1\r\n\r\n");
        std::thread::sleep(Duration::from_millis(80));
        let mut queued = KeepAliveClient::connect(addr);
        queued.write_raw("GET /health HTTP/1.1\r\n\r\n");
        std::thread::sleep(Duration::from_millis(80));
        // The keep-alive connection's next request finds the queue
        // full.
        client.write_raw("GET /health HTTP/1.1\r\n\r\n");
        let shed = client.read_one();
        assert_eq!(shed.status(), 503, "reply: {}", shed.status_line);
        assert_eq!(shed.header("retry-after"), Some("1"));
        assert!(shed.body_str().contains("\"code\":\"http.overloaded\""));
        assert!(client.at_eof(), "shed closes the connection");
        // The admitted requests still complete.
        assert_eq!(busy.read_one().status_line, "HTTP/1.1 200 OK");
        assert_eq!(queued.read_one().status_line, "HTTP/1.1 200 OK");
    });
    assert_eq!(report.served, 3, "admitted requests all served");
    assert_eq!(report.shed, 1);
}

/// A request that stalls half-received is answered with `408 Request
/// Timeout` (it sent bytes, so it gets an answer) and the connection
/// closes; the timeout is counted.
#[test]
fn stalled_request_gets_408() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..test_config()
    };
    let (_, report) = with_server(config, |addr| {
        let mut client = KeepAliveClient::connect(addr);
        // Headers promise 10 body bytes; only 3 ever arrive.
        client.write_raw("POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        let response = client.read_one();
        assert_eq!(response.status_line, "HTTP/1.1 408 Request Timeout");
        assert!(response
            .body_str()
            .contains("\"code\":\"http.request_timeout\""));
        assert!(client.at_eof(), "408 closes the connection");
    });
    assert_eq!(report.served, 0, "nothing was admitted");
    assert_eq!(report.snapshot.counter(obs::Counter::HttpTimeouts), 1);
}

/// The per-connection request cap: the final allowed response says
/// `Connection: close` and the server closes, bounding how long one
/// client can pin a connection slot.
#[test]
fn max_requests_per_conn_is_enforced() {
    let config = ServerConfig {
        max_requests_per_conn: 2,
        ..test_config()
    };
    let (_, report) = with_server(config, |addr| {
        let mut client = KeepAliveClient::connect(addr);
        client.write_raw("GET /health HTTP/1.1\r\n\r\n");
        let first = client.read_one();
        assert_eq!(first.header("connection"), Some("keep-alive"));
        client.write_raw("GET /health HTTP/1.1\r\n\r\n");
        let second = client.read_one();
        assert_eq!(second.status_line, "HTTP/1.1 200 OK");
        assert_eq!(second.header("connection"), Some("close"));
        assert!(client.at_eof(), "capped connection is closed");
    });
    assert_eq!(report.served, 2);
}

// ---------------------------------------------------------------------------
// Conversational sessions (docs/SESSIONS.md)
// ---------------------------------------------------------------------------

fn post_session_query(addr: SocketAddr, session: &str, question: &str) -> (String, String) {
    let body = format!("{{\"question\": {question:?}, \"session\": {session:?}}}");
    post(addr, "/query", &body)
}

fn post_session_query_on(
    addr: SocketAddr,
    doc: &str,
    session: &str,
    question: &str,
) -> (String, String) {
    let body =
        format!("{{\"question\": {question:?}, \"doc\": {doc:?}, \"session\": {session:?}}}");
    post(addr, "/query", &body)
}

fn error_field<'a>(body: &'a Json, field: &str) -> Option<&'a Json> {
    body.get("error").and_then(|e| e.get(field))
}

/// The session contract end to end: a three-turn dialogue on one
/// keep-alive connection, where each follow-up's answers are
/// bit-identical to the stateless stacked-constraint oracle sentence.
#[test]
fn session_dialogue_resolves_follow_ups_against_the_oracle() {
    let oracle = Nalix::new(xmldb::datasets::bib::bib());
    let expected2 = oracle
        .answer_full(
            "List all the books written by Stevens published after 1993.",
            &EvalBudget::default(),
        )
        .expect("oracle turn 2")
        .values;
    let expected3 = oracle
        .answer_full(
            "List all the books written by Suciu published after 1993.",
            &EvalBudget::default(),
        )
        .expect("oracle turn 3")
        .values;

    let (bodies, report) = with_server(test_config(), |addr| {
        let mut client = KeepAliveClient::connect(addr);
        let turns = [
            "List all the books written by Stevens.",
            "Of those, which were published after 1993?",
            "What about by Suciu?",
        ];
        turns
            .iter()
            .map(|q| {
                let body = format!("{{\"question\": {q:?}, \"session\": \"dlg\"}}");
                client.write_raw(&format!(
                    "POST /query HTTP/1.1\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                ));
                let resp = client.read_one();
                (resp.status_line.clone(), resp.body_str())
            })
            .collect::<Vec<_>>()
    });

    for (i, (status, body)) in bodies.iter().enumerate() {
        assert_eq!(status, "HTTP/1.1 200 OK", "turn {}: {body}", i + 1);
        let parsed = Json::parse(body).expect("JSON body");
        assert_eq!(parsed.get("session").and_then(Json::as_str), Some("dlg"));
        assert_eq!(
            parsed.get("turn").and_then(Json::as_u64),
            Some(i as u64 + 1),
            "turn number echoes the dialogue position"
        );
    }
    assert_eq!(answers_of(&bodies[1].1), expected2);
    assert_eq!(answers_of(&bodies[2].1), expected3);
    assert!(bodies[2].1.contains("Data on the Web"), "{}", bodies[2].1);
    // Resolved turns warn the user what the reference was taken to
    // mean (the sessions counterpart of the pronoun warning).
    assert!(bodies[1].1.contains("previous question"), "{}", bodies[1].1);

    assert!(report.snapshot.counter(obs::Counter::SessionCreates) >= 1);
    assert!(report.snapshot.counter(obs::Counter::SessionHits) >= 2);
    assert_eq!(report.snapshot.counter(obs::Counter::AnaphoraResolved), 2);
}

/// The same follow-up with no session id gets the typed
/// missing-context error (with a rephrasing suggestion), not an opaque
/// parse rejection.
#[test]
fn follow_up_without_a_session_is_a_typed_missing_context_error() {
    let (out, _report) = with_server(test_config(), |addr| {
        post_query(addr, "Of those, which were published after 1993?")
    });
    let (status, body) = out;
    assert_eq!(status, "HTTP/1.1 422 Unprocessable Entity", "body: {body}");
    let parsed = Json::parse(&body).expect("JSON body");
    assert_eq!(
        error_field(&parsed, "code").and_then(Json::as_str),
        Some("session.missing_context")
    );
    let suggestion = error_field(&parsed, "suggestion")
        .and_then(Json::as_str)
        .expect("suggestion");
    assert!(!suggestion.is_empty());
}

/// An idle session past the TTL is gone: the next follow-up gets
/// `410 Gone` with the typed expired-context error, and the expiry is
/// visible on the `session_expired` counter.
#[test]
fn idle_session_expires_and_the_follow_up_is_gone() {
    let config = ServerConfig {
        session_ttl: Duration::from_millis(1),
        ..test_config()
    };
    let (out, report) = with_server(config, |addr| {
        let first = post_session_query(addr, "ttl", "List all the books written by Stevens.");
        std::thread::sleep(Duration::from_millis(30));
        let second = post_session_query(addr, "ttl", "Of those, which were published after 1993?");
        (first, second)
    });
    let (first, second) = out;
    assert_eq!(first.0, "HTTP/1.1 200 OK", "body: {}", first.1);
    assert_eq!(second.0, "HTTP/1.1 410 Gone", "body: {}", second.1);
    assert!(
        second.1.contains("\"code\":\"session.expired\""),
        "{}",
        second.1
    );
    assert!(report.snapshot.counter(obs::Counter::SessionExpired) >= 1);
}

/// Hot-reloading the pinned document retires the conversation: the
/// session pins a (name, generation) identity, never a snapshot, so a
/// follow-up after the reload is a typed expired-context error and a
/// fresh self-contained question starts a new conversation on the new
/// generation.
#[test]
fn hot_reload_retires_the_session_context() {
    let (out, _report) = with_server(test_config(), |addr| {
        let (status, body) = put_doc(addr, "movies", "");
        assert_eq!(status, "HTTP/1.1 200 OK", "load: {body}");
        let first = post_session_query_on(
            addr,
            "movies",
            "reload",
            "Find all the movies directed by Ron Howard.",
        );
        let (status, body) = put_doc(addr, "movies", "");
        assert_eq!(status, "HTTP/1.1 200 OK", "reload: {body}");
        let second = post_session_query_on(
            addr,
            "movies",
            "reload",
            "Of those, which were made after 1990?",
        );
        let third = post_session_query_on(
            addr,
            "movies",
            "reload",
            "Find all the movies directed by Ron Howard.",
        );
        (first, second, third)
    });
    let (first, second, third) = out;
    assert_eq!(first.0, "HTTP/1.1 200 OK", "body: {}", first.1);
    assert_eq!(second.0, "HTTP/1.1 410 Gone", "body: {}", second.1);
    assert!(
        second.1.contains("\"code\":\"session.expired\"") && second.1.contains("reloaded"),
        "{}",
        second.1
    );
    assert_eq!(third.0, "HTTP/1.1 200 OK", "body: {}", third.1);
    let parsed = Json::parse(&third.1).expect("JSON body");
    assert_eq!(
        parsed.get("turn").and_then(Json::as_u64),
        Some(1),
        "the retired conversation restarted from turn 1"
    );
    assert_eq!(
        parsed.get("generation").and_then(Json::as_u64),
        Some(2),
        "the new conversation is on the reloaded generation"
    );
}

/// Evicting the pinned document retires the conversation too: with no
/// explicit `"doc"`, the session's pin names a document that is no
/// longer loaded, and the follow-up is a typed expired-context error
/// (not a 404 about a document the user never mentioned).
#[test]
fn evicting_the_pinned_document_retires_the_session() {
    let (out, _report) = with_server(test_config(), |addr| {
        let (status, body) = put_doc(addr, "movies", "");
        assert_eq!(status, "HTTP/1.1 200 OK", "load: {body}");
        let first = post_session_query_on(
            addr,
            "movies",
            "evict",
            "Find all the movies directed by Ron Howard.",
        );
        let (status, body) = delete_doc(addr, "movies");
        assert_eq!(status, "HTTP/1.1 200 OK", "evict: {body}");
        let second = post_session_query(addr, "evict", "Of those, which were made after 1990?");
        (first, second)
    });
    let (first, second) = out;
    assert_eq!(first.0, "HTTP/1.1 200 OK", "body: {}", first.1);
    assert_eq!(second.0, "HTTP/1.1 410 Gone", "body: {}", second.1);
    assert!(
        second.1.contains("\"code\":\"session.expired\"") && second.1.contains("no longer loaded"),
        "{}",
        second.1
    );
}

/// The session store is LRU-bounded by `session_capacity`: the least
/// recently used conversation is evicted first, and a recently touched
/// one survives with its full context.
#[test]
fn session_store_is_lru_bounded() {
    let config = ServerConfig {
        session_capacity: 2,
        ..test_config()
    };
    let opener = "List all the books written by Stevens.";
    let (out, _report) = with_server(config, |addr| {
        let a1 = post_session_query(addr, "alice", opener);
        let b1 = post_session_query(addr, "bob", opener);
        // Touch alice so bob is the least recently used...
        let a2 = post_session_query(addr, "alice", "Of those, which were published after 1993?");
        // ...and carol's arrival evicts bob.
        let c1 = post_session_query(addr, "carol", opener);
        let b2 = post_session_query(addr, "bob", "Of those, which were published after 1993?");
        let a3 = post_session_query(addr, "alice", "What about by Suciu?");
        (a1, b1, a2, c1, b2, a3)
    });
    let (a1, b1, a2, c1, b2, a3) = out;
    for (label, (status, body)) in [("a1", &a1), ("b1", &b1), ("a2", &a2), ("c1", &c1)] {
        assert_eq!(status, "HTTP/1.1 200 OK", "{label}: {body}");
    }
    assert_eq!(b2.0, "HTTP/1.1 410 Gone", "body: {}", b2.1);
    assert!(b2.1.contains("\"code\":\"session.expired\""), "{}", b2.1);
    // Alice's two-turn context survived the churn: the third turn still
    // resolves against it.
    assert_eq!(a3.0, "HTTP/1.1 200 OK", "body: {}", a3.1);
    assert!(a3.1.contains("Data on the Web"), "{}", a3.1);
    let parsed = Json::parse(&a3.1).expect("JSON body");
    assert_eq!(parsed.get("turn").and_then(Json::as_u64), Some(3));
}

// ---------------------------------------------------------------------------
// Writable documents (docs/UPDATES.md)
// ---------------------------------------------------------------------------

/// The write-path round trip over real sockets: POST an edit batch,
/// watch the answer change, the generation advance, and the update
/// counters land on `/metrics` — while a pipeline pinned before the
/// update keeps answering from its snapshot, and a stale
/// `expected_generation` is answered with a typed `409`.
#[test]
fn update_round_trip_changes_answers_and_advances_generation() {
    let store = test_store();
    let q = "Find all the movies directed by Ron Howard.";
    let (out, report) = with_store_server(Arc::clone(&store), test_config(), |addr| {
        let before = post_query_on(addr, "movies", q);
        // Pin the pre-update pipeline exactly as an in-flight query
        // would, and find the pre rank of one Ron Howard director's
        // text node on that snapshot.
        let pinned = store.get(Some("movies")).expect("movies is resident");
        let doc = pinned.doc();
        let director = doc
            .nodes_labeled("director")
            .iter()
            .copied()
            .find(|&d| doc.string_value(d) == "Ron Howard")
            .expect("a Ron Howard movie exists");
        let text_pre = doc.pre(doc.first_child(director).expect("director has text"));
        let generation = pinned.generation();

        let edit = format!(
            "{{\"edits\": [{{\"op\": \"replace_value\", \"target\": {text_pre}, \
             \"value\": \"Rob Reiner\"}}], \"expected_generation\": {generation}}}"
        );
        let update = post(addr, "/docs/movies/update", &edit);
        let after = post_query_on(addr, "movies", q);
        let stale = post(addr, "/docs/movies/update", &edit); // generation moved on
        let metrics = send(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        (before, pinned, generation, update, after, stale, metrics)
    });
    let (before, pinned, generation, update, after, stale, metrics) = out;

    assert_eq!(before.0, "HTTP/1.1 200 OK", "body: {}", before.1);
    let baseline = answers_of(&before.1);
    assert!(!baseline.is_empty());

    assert_eq!(update.0, "HTTP/1.1 200 OK", "body: {}", update.1);
    let parsed = Json::parse(&update.1).expect("update JSON");
    assert_eq!(
        parsed.get("generation").and_then(Json::as_u64),
        Some(generation + 1),
        "the response echoes the successor generation"
    );
    assert_eq!(
        parsed.get("strategy").and_then(Json::as_str),
        Some("patch"),
        "a one-edit batch must take the incremental path"
    );

    assert_eq!(after.0, "HTTP/1.1 200 OK", "body: {}", after.1);
    let post_update = answers_of(&after.1);
    assert_eq!(
        post_update.len(),
        baseline.len() - 1,
        "the rewritten movie left the result set"
    );
    assert_eq!(
        Json::parse(&after.1)
            .expect("query JSON")
            .get("generation")
            .and_then(Json::as_u64),
        Some(generation + 1),
        "post-commit queries see the new generation"
    );

    // Snapshot isolation: the pipeline pinned before the update still
    // answers bit-identically to the pre-update wire answer.
    let pinned_answers = pinned.nalix().ask(q).expect("pinned snapshot answers");
    assert_eq!(pinned_answers, baseline);

    assert_eq!(stale.0, "HTTP/1.1 409 Conflict", "body: {}", stale.1);
    assert!(
        stale.1.contains("\"code\":\"store.conflict\""),
        "body: {}",
        stale.1
    );

    // The incremental-maintenance contract on the metrics surface:
    // updates happened, patches happened, rebuilds did not.
    assert!(
        metrics.1.contains("nalix_doc_updates_total 1"),
        "metrics: {}",
        metrics.1
    );
    assert!(
        metrics.1.contains("nalix_index_patches_total 1"),
        "metrics: {}",
        metrics.1
    );
    assert!(
        metrics.1.contains("nalix_index_rebuilds_total 0"),
        "metrics: {}",
        metrics.1
    );
    assert_eq!(report.snapshot.counter(obs::Counter::UpdateConflicts), 1);
}

/// Malformed update requests map to typed errors, not panics: bad
/// JSON, a missing edits array, an unknown op, an out-of-range pre
/// rank, and an unknown document.
#[test]
fn update_rejections_are_typed() {
    let (out, _report) = with_server(test_config(), |addr| {
        (
            post(addr, "/docs/movies/update", "not json"),
            post(addr, "/docs/movies/update", "{}"),
            post(
                addr,
                "/docs/movies/update",
                r#"{"edits": [{"op": "transmogrify", "target": 1}]}"#,
            ),
            post(
                addr,
                "/docs/movies/update",
                r#"{"edits": [{"op": "delete_subtree", "target": 9999999}]}"#,
            ),
            post(
                addr,
                "/docs/ghost/update",
                r#"{"edits": [{"op": "delete_subtree", "target": 1}]}"#,
            ),
            send(addr, "GET /docs/movies/update HTTP/1.1\r\n\r\n"),
        )
    });
    let (bad_json, no_edits, bad_op, bad_rank, ghost, wrong_method) = out;
    assert_eq!(bad_json.0, "HTTP/1.1 400 Bad Request");
    assert_eq!(no_edits.0, "HTTP/1.1 400 Bad Request");
    assert!(
        no_edits.1.contains("missing \\\"edits\\\""),
        "{}",
        no_edits.1
    );
    assert_eq!(bad_op.0, "HTTP/1.1 400 Bad Request");
    assert!(bad_op.1.contains("unknown op"), "{}", bad_op.1);
    assert_eq!(bad_rank.0, "HTTP/1.1 400 Bad Request");
    assert!(
        bad_rank.1.contains("\"code\":\"store.update_rejected\""),
        "{}",
        bad_rank.1
    );
    assert_eq!(ghost.0, "HTTP/1.1 404 Not Found");
    assert_eq!(wrong_method.0, "HTTP/1.1 405 Method Not Allowed");
    assert!(wrong_method.1.contains("use POST"), "{}", wrong_method.1);
}

/// A chunked request body decodes through the real event loop: the
/// same query sent with `Content-Length` and with
/// `Transfer-Encoding: chunked` answers identically.
#[test]
fn chunked_request_bodies_decode_over_the_wire() {
    let (out, _report) = with_server(test_config(), |addr| {
        let plain = post_query(addr, "List all the books written by Stevens.");
        let body = r#"{"question": "List all the books written by Stevens."}"#;
        let mut chunked = String::from(
            "POST /query HTTP/1.1\r\nContent-Type: application/json\r\n\
             Transfer-Encoding: chunked\r\n\r\n",
        );
        // Split the body into two chunks to exercise reassembly.
        let (a, b) = body.split_at(17);
        for part in [a, b] {
            chunked.push_str(&format!("{:x}\r\n{part}\r\n", part.len()));
        }
        chunked.push_str("0\r\n\r\n");
        (plain, send(addr, &chunked))
    });
    let (plain, chunked) = out;
    assert_eq!(plain.0, "HTTP/1.1 200 OK", "body: {}", plain.1);
    assert_eq!(chunked.0, "HTTP/1.1 200 OK", "body: {}", chunked.1);
    assert_eq!(answers_of(&chunked.1), answers_of(&plain.1));
}

/// An update retires a session pinned to the pre-update generation,
/// exactly as a hot reload does: the session pins a `(name,
/// generation)` identity, so the next follow-up is a typed `410` and
/// a fresh question simply starts a new context on the successor.
#[test]
fn update_retires_sessions_pinned_to_the_old_generation() {
    let store = test_store();
    let (out, _report) = with_store_server(Arc::clone(&store), test_config(), |addr| {
        let first = post_session_query_on(
            addr,
            "movies",
            "upd",
            "Find all the movies directed by Ron Howard.",
        );
        // Any committed edit bumps the generation under the session.
        let pinned = store.get(Some("movies")).expect("resident");
        let movie_pre = pinned.doc().pre(
            pinned
                .doc()
                .nodes_labeled("movie")
                .first()
                .copied()
                .expect("movies exist"),
        );
        let update = post(
            addr,
            "/docs/movies/update",
            &format!(
                "{{\"edits\": [{{\"op\": \"insert_child\", \"parent\": {movie_pre}, \
                 \"node\": {{\"kind\": \"leaf\", \"label\": \"note\", \"text\": \"edited\"}}}}]}}"
            ),
        );
        let follow = post_session_query_on(
            addr,
            "movies",
            "upd",
            "Of those, which were made after 1990?",
        );
        (first, update, follow)
    });
    let (first, update, follow) = out;
    assert_eq!(first.0, "HTTP/1.1 200 OK", "body: {}", first.1);
    assert_eq!(update.0, "HTTP/1.1 200 OK", "body: {}", update.1);
    assert_eq!(follow.0, "HTTP/1.1 410 Gone", "body: {}", follow.1);
    assert!(
        follow.1.contains("\"code\":\"session.expired\""),
        "body: {}",
        follow.1
    );
}

/// A mutation phrased in natural language is never applied: the typed
/// `update.requires_confirmation` error (422) points the client at the
/// explicit edit API, and the document keeps answering unchanged.
#[test]
fn natural_language_mutations_are_refused() {
    let (out, _report) = with_server(test_config(), |addr| {
        (
            post_query(addr, "Delete all the books written by Stevens."),
            post_query(addr, "List all the books written by Stevens."),
        )
    });
    let (refused, allowed) = out;
    assert_eq!(
        refused.0, "HTTP/1.1 422 Unprocessable Entity",
        "body: {}",
        refused.1
    );
    assert!(
        refused
            .1
            .contains("\"code\":\"update.requires_confirmation\""),
        "body: {}",
        refused.1
    );
    assert!(refused.1.contains("/update"), "body: {}", refused.1);
    assert_eq!(allowed.0, "HTTP/1.1 200 OK", "body: {}", allowed.1);
}

/// The `backend` knob on `POST /query`: `"sql"` answers over the
/// document's relational view with the compiled SQL echoed, agrees
/// with the xquery backend on the answer set, survives a hot reload
/// and an update commit (the view reads the new snapshot and the new
/// generation is echoed), and an unknown backend is the typed
/// `backend.unknown` 400.
#[test]
fn sql_backend_round_trips_and_survives_reload_and_update() {
    let store = test_store();
    let q = "Find all the movies directed by Ron Howard.";
    let body_on = |backend: &str| {
        format!("{{\"question\": {q:?}, \"doc\": \"movies\", \"backend\": {backend:?}}}")
    };
    let (out, _report) = with_store_server(Arc::clone(&store), test_config(), |addr| {
        let via_xquery = post(addr, "/query", &body_on("xquery"));
        let via_sql = post(addr, "/query", &body_on("SQL")); // case-blind
        let unknown = post(addr, "/query", &body_on("postgres"));

        // Hot reload: a fresh pipeline (and so a view of the fresh
        // document) behind the same name.
        let reload = put_doc(addr, "movies", "movies");
        let after_reload = post(addr, "/query", &body_on("sql"));

        // Update commit: patch one director away, then ask again on
        // the SQL backend against the patched document.
        let pinned = store.get(Some("movies")).expect("movies is resident");
        let doc = pinned.doc();
        let director = doc
            .nodes_labeled("director")
            .iter()
            .copied()
            .find(|&d| doc.string_value(d) == "Ron Howard")
            .expect("a Ron Howard movie exists");
        let text_pre = doc.pre(doc.first_child(director).expect("director has text"));
        let generation = pinned.generation();
        let edit = format!(
            "{{\"edits\": [{{\"op\": \"replace_value\", \"target\": {text_pre}, \
             \"value\": \"Rob Reiner\"}}], \"expected_generation\": {generation}}}"
        );
        let update = post(addr, "/docs/movies/update", &edit);
        let after_update = post(addr, "/query", &body_on("sql"));
        let batch = post(
            addr,
            "/batch",
            &format!("{{\"questions\": [{q:?}], \"doc\": \"movies\", \"backend\": \"sql\"}}"),
        );
        (
            via_xquery,
            via_sql,
            unknown,
            reload,
            after_reload,
            generation,
            update,
            after_update,
            batch,
        )
    });
    let (
        via_xquery,
        via_sql,
        unknown,
        reload,
        after_reload,
        generation,
        update,
        after_update,
        batch,
    ) = out;

    assert_eq!(via_xquery.0, "HTTP/1.1 200 OK", "body: {}", via_xquery.1);
    assert_eq!(via_sql.0, "HTTP/1.1 200 OK", "body: {}", via_sql.1);
    let mut a = answers_of(&via_xquery.1);
    let mut b = answers_of(&via_sql.1);
    assert!(!a.is_empty());
    a.sort();
    b.sort();
    assert_eq!(a, b, "the two backends agree on the answer set");
    let sql_body = Json::parse(&via_sql.1).expect("sql JSON");
    assert_eq!(sql_body.get("backend").and_then(Json::as_str), Some("sql"));
    assert!(
        sql_body
            .get("xquery")
            .and_then(Json::as_str)
            .is_some_and(|t| t.starts_with("SELECT")),
        "body: {}",
        via_sql.1
    );
    assert_eq!(
        Json::parse(&via_xquery.1)
            .expect("xquery JSON")
            .get("backend")
            .and_then(Json::as_str),
        Some("xquery")
    );

    assert_eq!(unknown.0, "HTTP/1.1 400 Bad Request", "body: {}", unknown.1);
    assert!(
        unknown.1.contains("\"code\":\"backend.unknown\""),
        "body: {}",
        unknown.1
    );

    assert_eq!(reload.0, "HTTP/1.1 200 OK", "body: {}", reload.1);
    assert_eq!(
        after_reload.0, "HTTP/1.1 200 OK",
        "body: {}",
        after_reload.1
    );
    let mut c = answers_of(&after_reload.1);
    c.sort();
    assert_eq!(
        c, a,
        "the SQL backend answers identically after a hot reload"
    );

    assert_eq!(update.0, "HTTP/1.1 200 OK", "body: {}", update.1);
    assert_eq!(
        after_update.0, "HTTP/1.1 200 OK",
        "body: {}",
        after_update.1
    );
    let after_body = Json::parse(&after_update.1).expect("post-update JSON");
    assert_eq!(
        after_body.get("generation").and_then(Json::as_u64),
        Some(generation + 1),
        "post-commit SQL queries echo the successor generation"
    );
    assert_eq!(
        answers_of(&after_update.1).len(),
        a.len() - 1,
        "the rewritten movie left the SQL backend's result set too"
    );

    assert_eq!(batch.0, "HTTP/1.1 200 OK", "body: {}", batch.1);
    let batch_body = Json::parse(&batch.1).expect("batch JSON");
    assert_eq!(
        batch_body.get("backend").and_then(Json::as_str),
        Some("sql")
    );
}
