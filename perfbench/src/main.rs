//! `perfbench` — the repository benchmark: one seeded, oracle-checked
//! workload against a real `nalixd`, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload xmp-paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` additionally
//! replays the same sequence in-process with spans around every layer
//! call and prints the per-layer metrics instead. The last line of
//! standard output is the JSON result. See `perfbench/README.md`.

use perfbench::host::{self, Client, HostFacts, Nalixd};
use perfbench::oracle::{check, Oracle, Verdict};
use perfbench::report::{median, percentile, result_line, Metric};
use perfbench::trace;
use perfbench::workload::{self, Op, Plan, Workload, PASSES};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One pass: a freshly booted server, its warm-up, and the timed
/// sequence sent once.
struct Pass {
    /// Spawn until the first timed request could leave.
    setup_s: f64,
    /// Client latency of each timed operation, in sequence order.
    latency: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    rss_before_mb: f64,
    rss_peak_mb: f64,
    steal_frac: f64,
    load: (f64, f64),
}

/// Everything the HTTP run measured.
struct HttpRun {
    passes: Vec<Pass>,
    connects: usize,
    /// The one `/metrics` scrape, after the last pass's timed region.
    metrics_text: String,
    attempted: usize,
    failures: Vec<String>,
    sql_refusals: Vec<String>,
    deadline_refusals: Vec<String>,
    answered: usize,
    cached: usize,
    response_bytes: usize,
}

impl HttpRun {
    /// Median over the passes of `f`.
    fn median_of(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }
}

fn run(args: &Args) -> Result<String, String> {
    let facts = HostFacts::read();
    let t = Instant::now();
    let plan = workload::plan(args.workload, args.seed, args.seconds)?;
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: {} cpus, {}, rev {}",
        facts.cpus, facts.rustc, facts.git_rev
    );
    println!(
        "corpus digest {:016x} ({} bytes); sequence digest {:016x} ({} warm-up + {} passes of {} timed ops, {} writes each); planned in {:.2}s",
        plan.corpus_digest(),
        plan.xml.len(),
        plan.sequence_digest(),
        plan.warmup.len(),
        plan.passes.len(),
        plan.pass_len(),
        plan.writes(),
        t.elapsed().as_secs_f64()
    );
    let t = Instant::now();
    let oracle = Oracle::compute(&plan)?;
    println!(
        "oracle: {:.2}s, {:.1}% of distinct questions refused",
        t.elapsed().as_secs_f64(),
        100.0 * oracle.refused_share()
    );
    let bin = host::build_nalixd()?;
    let dir = host::run_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dataset = dir.join(format!("{}.xml", workload::DOC_NAME));
    std::fs::write(&dataset, &plan.xml).map_err(|e| format!("{}: {e}", dataset.display()))?;
    let http = http_run(&plan, &oracle, &bin, &dataset);
    let _ = std::fs::remove_dir_all(&dir);
    let http = http?;
    let e2e = report_http(&plan, &http);
    let failed = http.failures.len();
    let correct = failed == 0;
    let metrics = if args.trace {
        let last = http.passes.last().ok_or("no pass ran")?;
        let observed = trace::Observed {
            http_latency: &last.latency,
            metrics_text: &http.metrics_text,
            cached_frac: http.cached as f64 / http.answered.max(1) as f64,
            response_kb: http.response_bytes as f64
                / 1024.0
                / (plan.pass_len() * http.passes.len()).max(1) as f64,
            rss_mb_per_commit: match plan.writes() {
                0 => 0.0,
                w => http.median_of(|p| (p.rss_peak_mb - p.rss_before_mb).max(0.0)) / w as f64,
            },
            cpus: facts.cpus,
            steal_frac: http.median_of(|p| p.steal_frac),
        };
        trace::run(&plan, &oracle, &observed)?
    } else {
        e2e
    };
    Ok(result_line(correct, http.attempted, failed, &metrics))
}

/// Boot, warm up and drive the server once per pass; check every reply.
fn http_run(
    plan: &Plan,
    oracle: &Oracle,
    bin: &std::path::Path,
    dataset: &std::path::Path,
) -> Result<HttpRun, String> {
    let mut run = HttpRun {
        passes: Vec::with_capacity(PASSES),
        connects: 0,
        metrics_text: String::new(),
        attempted: 0,
        failures: Vec::new(),
        sql_refusals: Vec::new(),
        deadline_refusals: Vec::new(),
        answered: 0,
        cached: 0,
        response_bytes: 0,
    };
    let verdict = |run: &mut HttpRun,
                   op: &Op,
                   base: u64,
                   reply: std::io::Result<host::Reply>,
                   phase: &str| {
        run.attempted += 1;
        let v = match &reply {
            Ok(r) => check(op, oracle, base, r.status, &r.body),
            Err(e) => Verdict::Failed(format!("transport error: {e}")),
        };
        let what = match op {
            Op::Query(q) => q.text.clone(),
            Op::Update(u) => format!("update batch at generation {}", u.generation),
        };
        match v {
            Verdict::Ok => {}
            Verdict::SqlBudgetRefusal => run.sql_refusals.push(what),
            Verdict::DeadlineRefusal => run.deadline_refusals.push(format!("[{phase}] {what}")),
            Verdict::Failed(why) => run.failures.push(format!("[{phase}] {what}: {why}")),
        }
    };

    for (k, timed) in plan.passes.iter().enumerate() {
        let pass = k + 1;
        let t0 = Instant::now();
        let server = Nalixd::spawn(bin, dataset)?;
        let mut client = Client::new(&server.addr);
        let base = base_generation(&mut client)?;
        for op in &plan.warmup {
            let (path, body) = workload::request(op, base);
            let reply = client.send("POST", &path, &body);
            verdict(&mut run, op, base, reply, &format!("pass {pass} warm-up"));
        }
        let setup_s = t0.elapsed().as_secs_f64();
        let pid = server.pid();

        let requests: Vec<(String, String)> =
            timed.iter().map(|op| workload::request(op, base)).collect();
        let mut latency = Vec::with_capacity(requests.len());
        let mut replies = Vec::with_capacity(requests.len());
        let rss_before_mb = host::status_mb(pid, "VmRSS").unwrap_or(0.0);
        let cpu0 = host::cpu_seconds(pid).ok_or("cannot read server CPU time")?;
        let host0 = host::host_cpu();
        let load0 = host::load_average().unwrap_or(0.0);
        let t0 = Instant::now();
        for (path, body) in &requests {
            let t = Instant::now();
            let reply = client.send("POST", path, body);
            latency.push(t.elapsed().as_secs_f64());
            replies.push(reply);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds(pid).ok_or("cannot read server CPU time")? - cpu0;
        // Peak RSS is read before anything else touches the server: a
        // `/metrics` scrape would release retired generations first.
        let rss_peak_mb = host::status_mb(pid, "VmHWM").ok_or("cannot read server VmHWM")?;
        let steal_frac = match (host0, host::host_cpu()) {
            (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        let load = (load0, host::load_average().unwrap_or(0.0));
        if pass == plan.passes.len() {
            run.metrics_text = client
                .send("GET", "/metrics", "")
                .map(|r| r.body)
                .unwrap_or_default();
        }
        run.connects += client.connects;
        drop(server);

        for (op, reply) in timed.iter().zip(replies) {
            if let Ok(r) = &reply {
                run.response_bytes += r.body.len();
                if r.status == 200 && matches!(op, Op::Query(_)) {
                    run.answered += 1;
                    run.cached += usize::from(r.body.contains("\"cached\":true"));
                }
            }
            verdict(&mut run, op, base, reply, &format!("pass {pass}"));
        }
        run.passes.push(Pass {
            setup_s,
            latency,
            wall_s,
            cpu_s,
            rss_before_mb,
            rss_peak_mb,
            steal_frac,
            load,
        });
    }
    Ok(run)
}

/// The document's generation number as loaded, from `GET /docs`.
fn base_generation(client: &mut Client) -> Result<u64, String> {
    use server::json::Json;
    let reply = client
        .send("GET", "/docs", "")
        .map_err(|e| format!("GET /docs: {e}"))?;
    let docs = Json::parse(&reply.body).map_err(|e| format!("GET /docs: {e}"))?;
    docs.get("docs")
        .and_then(Json::as_array)
        .and_then(|docs| {
            docs.iter()
                .find(|d| d.get("name").and_then(Json::as_str) == Some(workload::DOC_NAME))
        })
        .and_then(|d| d.get("generation"))
        .and_then(Json::as_u64)
        .ok_or_else(|| "GET /docs does not list the corpus".to_string())
}

/// A latency percentile, smoothed: the mean of the samples within 2% of
/// ranks either side of the nearest rank. With the composition fixed by
/// stratification, that window holds the same mix of question classes in
/// every run, so the figure never rests on the one extreme request at a
/// class boundary. Printed with the plain nearest-rank value, the sample
/// count, the samples beyond the rank, and the classes in the window.
fn latency_line(name: &str, samples: &[(f64, &str)], p: f64) -> f64 {
    if samples.is_empty() {
        println!("  {name:<20} no samples");
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let values: Vec<f64> = sorted.iter().map(|s| s.0).collect();
    let (plain, rank) = percentile(&values, p);
    let beyond = values.len() - rank;
    let half = values.len() / 50;
    let window = &sorted[rank - 1 - half.min(rank - 1)..(rank + half).min(values.len())];
    let value = window.iter().map(|s| s.0).sum::<f64>() / window.len() as f64;
    let mut classes: Vec<&str> = window.iter().map(|s| s.1).collect();
    classes.sort_unstable();
    classes.dedup();
    let flag = if beyond < 10 * PASSES {
        " [fewer than 10 samples beyond per pass]"
    } else {
        ""
    };
    println!(
        "  {name:<20} {:>10.3} ms  n={} beyond={beyond} window={} nearest-rank={:.3} ms class={}{flag}",
        value * 1e3,
        values.len(),
        window.len(),
        plain * 1e3,
        if classes.len() > 3 {
            format!("{} and {} more", classes[..3].join(","), classes.len() - 3)
        } else {
            classes.join(",")
        }
    );
    value * 1e3
}

/// The slowest question classes by median latency.
fn slowest_classes(samples: &[(f64, &str)]) {
    let mut members: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for &(v, class) in samples {
        members.entry(class).or_default().push(v);
    }
    let mut classes: Vec<(f64, usize, &str)> = members
        .iter()
        .map(|(class, v)| (median(v), v.len(), *class))
        .collect();
    classes.sort_by(|a, b| b.0.total_cmp(&a.0));
    let top: Vec<String> = classes
        .iter()
        .take(5)
        .map(|(m, n, c)| format!("{c} {:.1} ms (n={n})", m * 1e3))
        .collect();
    println!("  slowest classes by median: {}", top.join("; "));
    let mut totals: Vec<(f64, usize, &str)> = members
        .iter()
        .map(|(class, v)| (v.iter().sum(), v.len(), *class))
        .collect();
    totals.sort_by(|a, b| b.0.total_cmp(&a.0));
    let top: Vec<String> = totals
        .iter()
        .take(6)
        .map(|(t, n, c)| format!("{c} {:.0} ms (n={n})", t * 1e3))
        .collect();
    println!("  most time in total: {}", top.join("; "));
}

/// Print the human-readable report and return the end-to-end metrics.
fn report_http(plan: &Plan, http: &HttpRun) -> Vec<Metric> {
    // Every pass's samples, pooled: the passes send the same mix of
    // requests, so pooling weighs each the same and averages their noise.
    let mut reads: Vec<(f64, &str)> = Vec::new();
    let mut writes: Vec<(f64, &str)> = Vec::new();
    for (pass, timed) in http.passes.iter().zip(&plan.passes) {
        for (&seconds, op) in pass.latency.iter().zip(timed) {
            match op {
                Op::Query(q) => reads.push((seconds, q.class.as_str())),
                Op::Update(_) => writes.push((seconds, "update")),
            }
        }
    }
    let ops = plan.pass_len() as f64;
    let total = |f: fn(&Pass) -> f64| http.passes.iter().map(f).sum::<f64>();
    let sent = ops * http.passes.len() as f64;
    let setup_s = http.median_of(|p| p.setup_s);
    let throughput = sent / total(|p| p.wall_s);
    let cpu_ms = total(|p| p.cpu_s) * 1e3 / sent;
    let rss_peak_mb = total(|p| p.rss_peak_mb) / http.passes.len() as f64;
    let ok = http.attempted
        - http.failures.len()
        - http.sql_refusals.len()
        - http.deadline_refusals.len();
    for (k, p) in http.passes.iter().enumerate() {
        println!(
            "pass {}: setup {:.3} s; {} ops in {:.3} s ({:.3}/s); server cpu {:.3} s; VmHWM {:.1} MB; load average {:.2} -> {:.2}; cpu steal {:.2}%",
            k + 1,
            p.setup_s,
            plan.pass_len(),
            p.wall_s,
            ops / p.wall_s,
            p.cpu_s,
            p.rss_peak_mb,
            p.load.0,
            p.load.1,
            100.0 * p.steal_frac
        );
    }
    println!(
        "{} passes over {} connection(s): setup_s is the median over the passes, rss_peak_mb their mean, and the other metrics pool them",
        http.passes.len(),
        http.connects
    );
    println!("end-to-end:");
    println!(
        "  {:<20} {setup_s:>10.3} s   n={}",
        "setup_s",
        http.passes.len()
    );
    println!("  {:<20} {throughput:>10.3} 1/s n={sent}", "throughput_rps");
    let p50 = latency_line("answer_p50_ms", &reads, 0.5);
    let p90 = latency_line("answer_p90_ms", &reads, 0.9);
    slowest_classes(&reads);
    if !writes.is_empty() {
        latency_line("write_p50_ms", &writes, 0.5);
        latency_line("write_p90_ms", &writes, 0.9);
    }
    println!(
        "  {:<20} {cpu_ms:>10.3} ms  n={sent} (server user+sys)",
        "cpu_ms_per_request"
    );
    println!(
        "  {:<20} {rss_peak_mb:>10.3} MB  n={} (server VmHWM, read before any /metrics scrape)",
        "rss_peak_mb",
        http.passes.len()
    );
    println!(
        "  {:<20} {:>10.4}     n={} ({} failed, {} sql budget refusals, {} deadline refusals)",
        "ok_frac",
        ok as f64 / http.attempted.max(1) as f64,
        http.attempted,
        http.failures.len(),
        http.sql_refusals.len(),
        http.deadline_refusals.len()
    );
    if !http.sql_refusals.is_empty() {
        let mut distinct = http.sql_refusals.clone();
        distinct.sort();
        distinct.dedup();
        println!(
            "sql backend refused with budget.tuples where xquery answered ({} requests, known defect):",
            http.sql_refusals.len()
        );
        for q in distinct {
            println!("  {q}");
        }
    }
    if !http.deadline_refusals.is_empty() {
        println!(
            "refused with budget.time after nalixd's default 2 s deadline where the oracle answered ({} requests; the host was slow or the question is):",
            http.deadline_refusals.len()
        );
        for q in &http.deadline_refusals {
            println!("  {q}");
        }
    }
    if !http.failures.is_empty() {
        println!("FAILED requests ({}):", http.failures.len());
        for f in http.failures.iter().take(50) {
            println!("  {f}");
        }
    }
    vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "throughput_rps",
            value: throughput,
            unit: "1/s",
        },
        Metric {
            name: "answer_p50_ms",
            value: p50,
            unit: "ms",
        },
        Metric {
            name: "answer_p90_ms",
            value: p90,
            unit: "ms",
        },
        Metric {
            name: "cpu_ms_per_request",
            value: cpu_ms,
            unit: "ms",
        },
        Metric {
            name: "rss_peak_mb",
            value: rss_peak_mb,
            unit: "MB",
        },
    ]
}
