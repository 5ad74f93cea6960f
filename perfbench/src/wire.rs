//! Child processes (`rwr serve`, `rwr router`), the NDJSON client, and
//! readings taken from outside a process through `/proc`.

use resacc_service::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a child may take to print its banner or to exit.
const CHILD_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `rwr` child. Dropping it kills and reaps the process, so an
/// early error return never leaves a server behind.
pub struct Proc {
    child: Option<Child>,
    /// The address from the child's `listening on <addr>` banner.
    pub addr: String,
    /// Process id, for `/proc` readings.
    pub pid: u32,
}

impl Proc {
    /// Spawns `rwr <args>`, sends its stdout to `log`, and waits for the
    /// `listening on <addr>` banner.
    pub fn spawn(rwr: &Path, args: &[String], log: &Path) -> Result<Proc, String> {
        let out =
            std::fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let child = Command::new(rwr)
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {} {args:?}: {e}", rwr.display()))?;
        let pid = child.id();
        let mut proc = Proc {
            child: Some(child),
            addr: String::new(),
            pid,
        };
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text.lines().find_map(|l| l.strip_prefix("listening on ")) {
                proc.addr = addr.trim().to_string();
                return Ok(proc);
            }
            if let Some(status) = proc
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("rwr {args:?} exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "rwr {args:?} printed no banner within {CHILD_TIMEOUT:?}"
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Asks the child to shut down over the wire and waits for it to exit;
    /// kills it if it does not exit in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr).and_then(|mut c| c.call(r#"{"op":"shutdown"}"#));
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("rwr at {} exited with {status}", self.addr))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let asked = asked.err().unwrap_or_default();
                    return Err(format!(
                        "rwr at {} did not exit after shutdown {asked}",
                        self.addr
                    ));
                }
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A blocking NDJSON connection: one request line, one reply line.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to `addr` with Nagle off.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(CHILD_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one line (also on a nonblocking socket).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err("send: connection closed".into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(20))
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Switches the socket between blocking and nonblocking mode.
    pub fn set_nonblocking(&self, on: bool) -> Result<(), String> {
        self.stream.set_nonblocking(on).map_err(|e| e.to_string())
    }

    /// The underlying socket, for readiness polling.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// On a nonblocking socket: reads whatever has arrived and returns the
    /// next complete line, if any, without waiting.
    pub fn try_recv(&mut self) -> Result<Option<String>, String> {
        if let Some(line) = self.take_line() {
            return Ok(Some(line));
        }
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed by peer".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(self.take_line()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// Returns the next complete reply line, waiting at most `timeout`
    /// (`Ok(None)` when none arrived in time).
    pub fn recv_within(&mut self, timeout: Duration) -> Result<Option<String>, String> {
        if let Some(line) = self.take_line() {
            return Ok(Some(line));
        }
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(left.max(Duration::from_micros(50))))
                .map_err(|e| e.to_string())?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed by peer".into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if let Some(line) = self.take_line() {
                        return Ok(Some(line));
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// Blocks for the next reply line.
    pub fn recv(&mut self) -> Result<String, String> {
        self.recv_within(CHILD_TIMEOUT)?
            .ok_or_else(|| format!("no reply within {CHILD_TIMEOUT:?}"))
    }

    /// Sends one request and returns its parsed reply.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        let reply = self.recv()?;
        Json::parse(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))
    }

    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=end).collect();
        Some(String::from_utf8_lossy(&line[..end]).into_owned())
    }
}

/// CPU time (user + system) a process has used so far, read from
/// `/proc/<pid>/stat`.
pub fn cpu_time(pid: u32) -> Result<Duration, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `)`.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed {path}"))
    };
    // Linux reports these in USER_HZ, which is 100 on every supported
    // architecture.
    Ok(Duration::from_millis((ticks(11)? + ticks(12)?) * 10))
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Host-wide CPU time as `(all ticks, stolen ticks)` from the first line
/// of `/proc/stat`; steal is time the hypervisor ran something else while
/// the machine's CPUs wanted to run.
pub fn host_ticks() -> Result<(u64, u64), String> {
    let text =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    let fields: Vec<u64> = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("malformed /proc/stat")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    Ok((
        fields.iter().take(8).sum(),
        fields.get(7).copied().unwrap_or(0),
    ))
}

/// A fresh, empty scratch directory under `root`, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `root/<name>`, replacing any leftover from an earlier run.
    pub fn create(root: &Path, name: &str) -> Result<WorkDir, String> {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
