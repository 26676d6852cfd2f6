//! The real `chameleond` and `chameleon_gate` binaries on loopback: two
//! journaled backends behind one gate, and the line client that talks to
//! them.

use chameleon_obs::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const START_TIMEOUT: Duration = Duration::from_secs(30);
const STOP_TIMEOUT: Duration = Duration::from_secs(60);
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Paths of the daemon binaries under test.
#[derive(Debug, Clone)]
pub struct Bins {
    pub chameleond: PathBuf,
    pub gate: PathBuf,
}

/// A running daemon. Dropping it kills and reaps the process, so no exit
/// path leaves one behind.
pub struct Daemon {
    name: String,
    child: Child,
    pub addr: String,
    pub metrics: PathBuf,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `bin` and waits for its "listening on <addr>" line. The
    /// rest of its stderr is drained on a thread so it never blocks.
    fn spawn(name: &str, bin: &Path, args: &[String], metrics: PathBuf) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{name}: cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(stderr);
            let mut line = String::new();
            let mut tx = Some(tx);
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                if let Some((_, addr)) = line.trim().rsplit_once("listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.to_string());
                    }
                }
                line.clear();
            }
        });
        let mut daemon = Daemon {
            name: name.to_string(),
            child,
            addr: String::new(),
            metrics,
            drain: Some(drain),
        };
        daemon.addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| format!("{name} did not start listening"))?;
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful `shutdown` op, then waits for the process to exit 0.
    fn shutdown(&mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.send("{\"op\":\"shutdown\"}")?;
        let reply = conn.recv()?;
        if !reply.contains("\"status\":\"ok\"") {
            return Err(format!("{}: shutdown refused: {reply}", self.name));
        }
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.name)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Ok(None) => return Err(format!("{} did not stop", self.name)),
                Err(e) => return Err(format!("{}: {e}", self.name)),
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        Ok(())
    }

    /// A counter from the metrics snapshot the daemon wrote at shutdown.
    pub fn final_counter(&self, name: &str) -> Result<u64, String> {
        let text = std::fs::read_to_string(&self.metrics)
            .map_err(|e| format!("{}: {e}", self.metrics.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", self.metrics.display()))?;
        Ok(doc
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Two journaled backends (`--workers 1`, interval fsync) behind a gate.
pub struct Fleet {
    pub backends: Vec<Daemon>,
    pub gate: Daemon,
    /// Request lines sent to the gate (each reaches one backend).
    pub gate_lines: AtomicU64,
    /// Request lines sent straight to a backend.
    pub direct_lines: AtomicU64,
}

impl Fleet {
    /// Starts the fleet with backends on `ports` (the gate's ring hashes
    /// backend addresses, so they are part of the seeded workload).
    pub fn start(bins: &Bins, dir: &Path, ports: &[u16]) -> Result<Fleet, String> {
        let mut backends = Vec::new();
        for (i, port) in ports.iter().enumerate() {
            let home = dir.join(format!("backend{i}"));
            std::fs::create_dir_all(&home).map_err(|e| format!("{}: {e}", home.display()))?;
            let metrics = home.join("metrics.json");
            let args: Vec<String> = [
                "--port",
                &port.to_string(),
                "--workers",
                "1",
                "--journal-dir",
                &home.join("journal").display().to_string(),
                "--journal-sync",
                "interval",
                "--metrics",
                &metrics.display().to_string(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            backends.push(Daemon::spawn(
                &format!("backend{i}"),
                &bins.chameleond,
                &args,
                metrics,
            )?);
        }
        let list: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
        let metrics = dir.join("gate-metrics.json");
        // Health probes are off: every backend request line is one the
        // benchmark sent, so per-request ratios are exact.
        let args: Vec<String> = [
            "--backends",
            &list.join(","),
            "--port",
            "0",
            "--health-interval-ms",
            "0",
            "--metrics",
            &metrics.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let gate = Daemon::spawn("gate", &bins.gate, &args, metrics)?;
        Ok(Fleet {
            backends,
            gate,
            gate_lines: AtomicU64::new(0),
            direct_lines: AtomicU64::new(0),
        })
    }

    pub fn gate_conn(&self) -> Result<Conn, String> {
        Conn::open(&self.gate.addr)
    }

    pub fn count_gate(&self, lines: u64) {
        self.gate_lines.fetch_add(lines, Ordering::Relaxed);
    }

    pub fn count_direct(&self, lines: u64) {
        self.direct_lines.fetch_add(lines, Ordering::Relaxed);
    }

    /// A backend's `status` result object.
    pub fn status(&self, conn: &mut Conn) -> Result<Json, String> {
        conn.send("{\"op\":\"status\"}")?;
        self.count_direct(1);
        let reply = conn.recv()?;
        let doc = Json::parse(&reply).map_err(|e| format!("status reply: {e}"))?;
        doc.get("result")
            .cloned()
            .ok_or_else(|| format!("status reply without result: {reply}"))
    }

    /// Stops the gate, then the backends, each by its `shutdown` op.
    pub fn stop(&mut self) -> Result<(), String> {
        self.gate.shutdown()?;
        let lines = self.backends.len() as u64;
        for b in &mut self.backends {
            b.shutdown()?;
        }
        self.count_direct(lines);
        Ok(())
    }
}

/// One protocol connection: newline-delimited request and reply lines.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Splits into independently owned read and write halves.
    pub fn split(self) -> (BufReader<TcpStream>, TcpStream) {
        (self.reader, self.writer)
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        send_line(&mut self.writer, line)
    }

    pub fn recv(&mut self) -> Result<String, String> {
        recv_line(&mut self.reader)
    }
}

pub fn send_line(w: &mut TcpStream, line: &str) -> Result<(), String> {
    send_parts(w, &[line])
}

/// Sends the concatenation of `parts` as one request line.
pub fn send_parts(w: &mut TcpStream, parts: &[&str]) -> Result<(), String> {
    parts
        .iter()
        .try_for_each(|p| w.write_all(p.as_bytes()))
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))
}

/// Reads one reply line without its newline.
pub fn recv_line(r: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut buf = Vec::new();
    match r.read_until(b'\n', &mut buf) {
        Ok(0) => Err("connection closed".to_string()),
        Ok(_) if buf.last() == Some(&b'\n') => {
            buf.pop();
            String::from_utf8(buf).map_err(|_| "reply is not UTF-8".to_string())
        }
        Ok(_) => Err("truncated reply".to_string()),
        Err(e) => Err(format!("recv: {e}")),
    }
}
