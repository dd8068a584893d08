//! The program's processes as children of the benchmark, and the
//! minimal HTTP/1.1 client the load generator speaks to them with.
//!
//! The client is the benchmark's own, not `lightor_server::HttpClient`,
//! so a change to the program's client code cannot move the generator.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Serve seed: fixed, so the catalog and the trained models are the
/// same in every run; only the generated requests vary with `--seed`.
pub const SERVE_SEED: u64 = 71;

/// One running `lightor-serve` or `lightor-router`.
pub struct Proc {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// The `catalog:` line's ids (`lightor-serve` only).
    pub catalog: Vec<u64>,
    pub data_dir: Option<PathBuf>,
}

impl Proc {
    /// Spawn `lightor-serve` on `data_dir` (created by the program if
    /// missing); `port` 0 lets the kernel pick one. Follow with
    /// [`Proc::wait_ready`].
    pub fn serve(bin: &Path, data_dir: &Path, port: u16) -> Result<Proc, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--port")
            .arg(port.to_string())
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--seed")
            .arg(SERVE_SEED.to_string());
        let mut p = Proc::spawn(cmd)?;
        p.data_dir = Some(data_dir.to_path_buf());
        Ok(p)
    }

    /// Spawn `lightor-router` over `backends`. Follow with
    /// [`Proc::wait_ready`].
    pub fn router(bin: &Path, backends: &[SocketAddr]) -> Result<Proc, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--port").arg("0");
        for b in backends {
            cmd.arg("--backend").arg(b.to_string());
        }
        Proc::spawn(cmd)
    }

    fn spawn(mut cmd: Command) -> Result<Proc, String> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Proc {
            child,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            catalog: Vec::new(),
            data_dir: None,
        })
    }

    /// Block until the process printed its `listening` line (and, for
    /// `lightor-serve`, its `catalog:` line), reading its address and
    /// catalog from them. Event-driven: no sleeps, no polling.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        let line = self.read_until("listening on http://")?;
        self.addr = line
            .trim()
            .parse()
            .map_err(|e| format!("listening line {line:?}: {e}"))?;
        if self.data_dir.is_some() {
            let line = self.read_until("catalog: ")?;
            self.catalog = line
                .split_whitespace()
                .map(|t| t.parse::<u64>().map_err(|e| format!("catalog line: {e}")))
                .collect::<Result<_, _>>()?;
        }
        Ok(())
    }

    /// Read stdout lines until one contains `marker`; returns the rest
    /// of that line after the marker.
    fn read_until(&mut self, marker: &str) -> Result<String, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                ._stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading child stdout: {e}"))?;
            if n == 0 {
                return Err(format!("child exited before printing {marker:?}"));
            }
            if let Some(i) = line.find(marker) {
                return Ok(line[i + marker.len()..].trim_end().to_string());
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `utime + stime` of a process in milliseconds (`/proc/<pid>/stat`,
/// clock ticks at the Linux default of 100 Hz).
pub fn cpu_ms(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 10.0
}

/// `write_bytes` of `/proc/<pid>/io`: bytes the process caused to be
/// sent to the storage layer.
pub fn write_bytes(pid: u32) -> f64 {
    proc_field(&format!("/proc/{pid}/io"), "write_bytes:")
}

/// Peak resident set (`VmHWM`) in MB.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    proc_field(&format!("/proc/{pid}/status"), "VmHWM:") / 1024.0
}

fn proc_field(path: &str, key: &str) -> f64 {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    /// The server announced `Connection: close`: reconnect before the
    /// next request.
    closed: bool,
}

/// A response as received: status and body bytes.
pub struct Resp {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            addr,
            stream,
            buf: Vec::with_capacity(4096),
            closed: false,
        })
    }

    /// Send pre-serialized request bytes and read one response.
    pub fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<Resp> {
        if self.closed {
            *self = Conn::connect(self.addr)?;
        }
        self.stream.write_all(request)?;
        self.read_response()
    }

    /// Write one request without waiting for its response
    /// (pipelining); pair with [`Conn::recv`].
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read the next response of a pipelined sequence.
    pub fn recv(&mut self) -> std::io::Result<Resp> {
        self.read_response()
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Resp> {
        self.roundtrip(&get_request(path))
    }

    fn read_response(&mut self) -> std::io::Result<Resp> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.parse().map_err(|_| bad("bad Content-Length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    self.closed = value.eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < head_end + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        // Bytes past this response belong to the next pipelined one.
        self.buf.drain(..head_end + len);
        Ok(Resp { status, body })
    }
}

/// The exact bytes of `GET path`.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: lightor\r\nContent-Length: 0\r\n\r\n").into_bytes()
}

/// The exact bytes of `POST path` with a body; `extra` are additional
/// header lines, each ending in CRLF.
pub fn post_request(path: &str, content_type: &str, extra: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: lightor\r\nContent-Type: {content_type}\r\n{extra}Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}
