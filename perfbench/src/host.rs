//! The server process and the host: building and booting `nalixd`, a
//! keep-alive HTTP client, and the `/proc` readings (server CPU and
//! peak RSS, host CPU steal, load average).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// The repository root: the benchmark package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Where a run keeps its corpus file: inside the cargo target
/// directory, so nothing lands outside the checkout's build output.
pub fn run_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("perfbench").join("target"));
    target
        .join("perfbench-run")
        .join(std::process::id().to_string())
}

/// Build `nalixd` from the repository's own workspace and return its
/// path. Fresh builds cost only cargo's up-to-date check.
pub fn build_nalixd() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(repo_root())
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "server",
            "--bin",
            "nalixd",
            "--message-format=json-render-diagnostics",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building nalixd failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| server::json::Json::parse(line).ok())
        .filter(|m| {
            m.get("target")
                .and_then(|t| t.get("name"))
                .and_then(server::json::Json::as_str)
                == Some("nalixd")
        })
        .find_map(|m| {
            m.get("executable")
                .and_then(server::json::Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no nalixd executable".to_string())
}

/// A running `nalixd`, killed and reaped on drop.
pub struct Nalixd {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
    log: Option<JoinHandle<()>>,
}

impl Nalixd {
    /// Boot `bin` serving `dataset` with every other flag at nalixd's
    /// default, on a free loopback port; returns once it listens.
    pub fn spawn(bin: &Path, dataset: &Path) -> Result<Nalixd, String> {
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--dataset")
            .arg(dataset)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start nalixd: {e}"))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split(" on http://").nth(1) {
                        break rest
                            .split_whitespace()
                            .next()
                            .unwrap_or_default()
                            .to_string();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("nalixd exited before listening".to_string());
                }
            }
        };
        // Keep draining stderr so the server never blocks on the pipe.
        let log = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Ok(Nalixd {
            child,
            addr,
            log: Some(log),
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Nalixd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

/// One framed reply.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// The body.
    pub body: String,
}

/// A single keep-alive connection that reconnects when the server
/// announces `Connection: close` (nalixd closes after 10,000 requests).
pub struct Client {
    addr: String,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Connections opened so far.
    pub connects: usize,
}

impl Client {
    /// A client for `addr`; connects on first use.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
            connects: 0,
        }
    }

    /// Send one request and read its framed reply.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
            self.connects += 1;
        }
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let sent = stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()));
        let reply = sent.and_then(|()| server::http::read_response(reader));
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        if reply
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.conn = None;
        }
        Ok(Reply {
            status: reply.status(),
            body: reply.body_str(),
        })
    }
}

/// User plus system CPU seconds of process `pid`.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// A `/proc/<pid>/status` memory field (`VmHWM`, `VmRSS`) in MB.
pub fn status_mb(pid: u32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Aggregate host CPU counters from `/proc/stat`: (total, steal) ticks.
pub fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let total = cpu.iter().take(8).sum();
    Some((total, *cpu.get(7)?))
}

/// The 1-minute load average.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Host facts printed with every result.
pub struct HostFacts {
    /// Cores the process may run on.
    pub cpus: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// The repository revision, when the checkout is a git repository.
    pub git_rev: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl HostFacts {
    /// Read the facts.
    pub fn read() -> HostFacts {
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
        HostFacts {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        }
    }
}
