//! Helpers shared by the service benchmarks (`src/bin/bench_*.rs`): env
//! knobs, spawned `rwr serve` children, NDJSON requests over
//! [`resacc_service::client`], router progress polling, a deterministic
//! mutation history, and the replica catch-up / bit-identity gates.

use resacc::RwrSession;
use resacc_service::json::Json;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Source of the probe query the bit-identity gates compare.
pub const PROBE_SOURCE: u32 = 3;
/// Seed of the probe query the bit-identity gates compare.
pub const PROBE_SEED: u64 = 77;

/// Reads a numeric env knob, falling back to `default` when unset or
/// unparsable.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The compiled `rwr` CLI, sitting next to the running bench in the
/// target dir (override with `RESACC_RWR_BIN`).
pub fn rwr_bin() -> PathBuf {
    if let Ok(p) = std::env::var("RESACC_RWR_BIN") {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().expect("current_exe");
    let cand = exe
        .parent()
        .expect("bench binary has a parent dir")
        .join(format!("rwr{}", std::env::consts::EXE_SUFFIX));
    assert!(
        cand.exists(),
        "rwr binary not found at {} — build it first (`cargo build --release -p resacc-cli`) \
         or point RESACC_RWR_BIN at it",
        cand.display()
    );
    cand
}

/// A running `rwr serve` child with its listener addresses scraped,
/// killed on drop.
pub struct Proc {
    /// The child process.
    pub child: Child,
    /// NDJSON front-end address.
    pub addr: String,
    /// Replication-listener address, when the child printed one.
    pub repl_addr: Option<String>,
}

impl Proc {
    /// SIGKILLs the child and reaps it.
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

/// Spawns `rwr serve` on an ephemeral port over `graph`, durable in
/// `data_dir`, and waits for its `listening on` line.
pub fn spawn_serve(graph: &Path, data_dir: &Path, extra: &[&str]) -> Proc {
    let mut cmd = Command::new(rwr_bin());
    cmd.args(["serve", "--graph"])
        .arg(graph)
        .args(["--listen", "127.0.0.1:0", "--data-dir"])
        .arg(data_dir)
        .args(extra)
        .stdout(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn rwr serve");
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
    let addr = loop {
        let line = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("rwr serve prints `listening on`");
        if let Some(rest) = line.strip_prefix("replication listening on ") {
            repl_addr = Some(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.to_string();
        }
    };
    Proc {
        child,
        addr,
        repl_addr,
    }
}

/// One-shot NDJSON request on a fresh connection, with a 30 s read bound.
pub fn request(addr: &str, line: &str) -> Json {
    let response = resacc_service::client::request(addr, line, Some(Duration::from_secs(30)))
        .expect("request round-trips");
    Json::parse(&response).expect("backend speaks json")
}

/// Requests the router has routed so far (reads + mutations) — the
/// progress signal that triggers kills at deterministic workload points.
pub fn routed_so_far(router_addr: &str) -> u64 {
    let stats = request(router_addr, r#"{"op":"stats"}"#);
    let rt = stats.get("router");
    let get = |k: &str| rt.and_then(|r| r.get(k)).and_then(Json::as_u64).unwrap_or(0);
    get("reads") + get("mutations")
}

/// Blocks until the router has routed at least `n` requests.
pub fn wait_routed(router_addr: &str, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while routed_so_far(router_addr) < n {
        assert!(
            Instant::now() < deadline,
            "loadgen never reached {n} routed requests"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Applies mutation `i` of a deterministic history over an `n`-node
/// graph: edge-insert batches with periodic edge deletions and node
/// deletions (every deleted node is later resurrected by an insert).
pub fn apply_nth(session: &RwrSession, i: u64, n: u64) {
    let a = (i * 911 + 17) % n;
    let b = (i * 613 + 31) % n;
    let c = (i * 389 + 7) % n;
    if i % 50 == 49 {
        session.delete_node(a as u32);
    } else if i % 17 == 16 {
        session.delete_edges(&[(a as u32, b as u32)]);
    } else {
        session.insert_edges(&[
            (a as u32, b as u32),
            (b as u32, c as u32),
            (c as u32, (a + 1) as u32 % n as u32),
        ]);
    }
}

/// Waits for `session` to reach `version`; returns how long it took.
/// Panics (the gate) after `max_secs`.
pub fn wait_for_version(session: &RwrSession, version: u64, max_secs: u64, what: &str) -> Duration {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(max_secs);
    while session.version() < version {
        assert!(
            Instant::now() < deadline,
            "{what}: node stuck at version {} waiting for {version} (gate: ≤ {max_secs} s)",
            session.version()
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    start.elapsed()
}

/// The hard gate: two nodes at the same version answer the probe query
/// bit-for-bit identically.
pub fn assert_bit_identical(a: &RwrSession, b: &RwrSession, what: &str) {
    assert_eq!(a.version(), b.version(), "{what}: version skew");
    let x = a.query(PROBE_SOURCE, PROBE_SEED).scores;
    let y = b.query(PROBE_SOURCE, PROBE_SEED).scores;
    assert_eq!(x.len(), y.len(), "{what}: graph size diverged");
    for (i, (p, q)) in x.iter().zip(&y).enumerate() {
        assert_eq!(
            p.to_bits(),
            q.to_bits(),
            "{what}: scores[{i}] diverged — not bit-exact"
        );
    }
}
