//! Helpers shared by the `rwr` integration tests: the binary, scratch
//! directories, graph files, scraped child processes, and NDJSON requests
//! over `resacc_service::client`.

// Each test target uses a different subset of these helpers.
#![allow(dead_code)]

use resacc_service::client::{self, Conn};
use resacc_service::json::Json;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Read bound for one test exchange: a wedged child fails the test
/// instead of hanging it.
const EXCHANGE_TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

pub fn rwr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rwr"))
}

/// A scratch directory, unique per call (pid + counter) so concurrently
/// running tests never share a path, removed on drop.
pub struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

pub fn temp_dir(tag: &str) -> TempDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rwr-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

/// Writes a seeded `nodes`-node Barabási–Albert edge list to `dir/g.txt`.
pub fn graph_file(dir: &Path, nodes: usize) -> PathBuf {
    let path = dir.join("g.txt");
    let g = resacc_graph::gen::barabasi_albert(nodes, 3, 7);
    resacc_graph::edgelist::save_edge_list(&g, &path).unwrap();
    path
}

/// A running `rwr` child (serve or router), killed on drop.
pub struct Proc {
    pub child: Child,
    /// NDJSON front-end address (`listening on <addr>`).
    pub addr: String,
    /// Replication-listener address, when the child printed one.
    pub repl_addr: Option<String>,
    /// Stdout lines printed before `listening on`.
    pub banner: Vec<String>,
    /// Stdout lines printed after `listening on`, pumped by a thread.
    pub stdout: mpsc::Receiver<String>,
}

impl Proc {
    pub fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns an `rwr` child and scrapes `listening on <addr>` (and the
/// replication listener line, when present) from its stdout.
pub fn spawn_scraped(mut cmd: Command) -> Proc {
    let mut child = cmd.stdout(Stdio::piped()).spawn().unwrap();
    let mut out = BufReader::new(child.stdout.take().unwrap());
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || loop {
        let mut line = String::new();
        match out.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                if tx.send(line.trim().to_string()).is_err() {
                    break;
                }
            }
        }
    });
    let mut repl_addr = None;
    let mut banner = Vec::new();
    let addr = loop {
        let line = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("child prints `listening on`");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.to_string();
        }
        if let Some(rest) = line.strip_prefix("replication listening on ") {
            repl_addr = Some(rest.to_string());
        }
        banner.push(line);
    };
    Proc {
        child,
        addr,
        repl_addr,
        banner,
        stdout: rx,
    }
}

/// `rwr serve` on an ephemeral port over `graph`, durable in `data_dir`.
pub fn serve_cmd(graph: &Path, data_dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = rwr();
    cmd.args(["serve", "--graph"])
        .arg(graph)
        .args(["--listen", "127.0.0.1:0", "--data-dir"])
        .arg(data_dir)
        .args(extra);
    cmd
}

pub fn spawn_serve(graph: &Path, data_dir: &Path, extra: &[&str]) -> Proc {
    spawn_scraped(serve_cmd(graph, data_dir, extra))
}

pub fn connect(addr: &str) -> Conn {
    client::connect(addr, EXCHANGE_TIMEOUT).unwrap()
}

/// One request on an open connection, parsed.
pub fn roundtrip(conn: &mut Conn, line: &str) -> Json {
    let response = client::exchange_on(conn, line, EXCHANGE_TIMEOUT).unwrap();
    Json::parse(&response).expect("peer speaks json")
}

/// One-shot request on a fresh connection (survives peer restarts).
pub fn request(addr: &str, line: &str) -> Json {
    roundtrip(&mut connect(addr), line)
}
