//! Open- and closed-loop drivers (two connections, two threads: the
//! caller's and one more) and the per-response checks.

use crate::inputs::{Kind, Op, BATCHES_PER_STREAM, TOP_K};
use crate::procs::{Conn, Resp};
use lightor_platform::wire::{DotsResponse, StreamAccepted};
use lightor_server::SessionAccepted;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Requests in flight per connection in the closed loop.
pub const PIPELINE: usize = 16;

/// One operation's outcome. Times are seconds since the phase start.
pub struct Sample {
    pub op: usize,
    /// Intended send time (open loop) or actual send time (closed).
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub resp: Result<Resp, String>,
}

impl Sample {
    /// Latency from the intended send time.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent.
    pub fn lateness(&self) -> f64 {
        self.sent - self.due
    }
}

/// Run `ops[range]` over two connections (see [`Op::lane`]). With
/// `rate`, the open loop: operation `i` is due at
/// `(i - range.start) / rate` seconds. Without, the closed loop: each
/// connection sends back to back, pipelined [`PIPELINE`] deep. Returns
/// the samples in operation order.
pub fn run(
    addr: SocketAddr,
    ops: &[Op],
    range: std::ops::Range<usize>,
    rate: Option<f64>,
) -> Vec<Sample> {
    let t0 = Instant::now();
    let lane = |conn: usize| -> Vec<Sample> {
        let mut out = Vec::new();
        let mut c = match Conn::connect(addr) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("connect {addr}: {e}");
                None
            }
        };
        let mine: Vec<usize> = range
            .clone()
            .filter(|&i| ops[i].lane(rate.is_some()) == conn)
            .collect();
        let Some(c) = c.as_mut() else {
            let now = t0.elapsed().as_secs_f64();
            for &i in &mine {
                out.push(Sample {
                    op: i,
                    due: now,
                    sent: now,
                    done: now,
                    resp: Err("no connection".into()),
                });
            }
            return out;
        };
        match rate {
            Some(r) => {
                for &i in &mine {
                    let due = (i - range.start) as f64 / r;
                    let now = t0.elapsed().as_secs_f64();
                    if due > now {
                        std::thread::sleep(Duration::from_secs_f64(due - now));
                    }
                    let sent = t0.elapsed().as_secs_f64();
                    let resp = c.roundtrip(&ops[i].raw).map_err(|e| e.to_string());
                    let done = t0.elapsed().as_secs_f64();
                    out.push(Sample {
                        op: i,
                        due,
                        sent,
                        done,
                        resp,
                    });
                }
            }
            None => {
                // Keep PIPELINE requests in flight: the server always has
                // the next request buffered, so throughput is its own
                // and not the loopback wake-up latency.
                let mut sent_at = std::collections::VecDeque::new();
                let mut next = 0;
                let mut broken: Option<String> = None;
                while out.len() < mine.len() {
                    while broken.is_none() && next < mine.len() && next - out.len() < PIPELINE {
                        sent_at.push_back(t0.elapsed().as_secs_f64());
                        if let Err(e) = c.send(&ops[mine[next]].raw) {
                            broken = Some(e.to_string());
                        }
                        next += 1;
                    }
                    let i = mine[out.len()];
                    let sent = sent_at
                        .pop_front()
                        .unwrap_or_else(|| t0.elapsed().as_secs_f64());
                    let resp = match &broken {
                        Some(e) => Err(e.clone()),
                        None => c.recv().map_err(|e| e.to_string()),
                    };
                    if let Err(e) = &resp {
                        broken.get_or_insert_with(|| e.clone());
                    }
                    let done = t0.elapsed().as_secs_f64();
                    out.push(Sample {
                        op: i,
                        due: sent,
                        sent,
                        done,
                        resp,
                    });
                }
            }
        }
        out
    };
    let (mut a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| lane(1));
        let mine = lane(0);
        (mine, other.join().expect("load thread panicked"))
    });
    a.extend(b);
    a.sort_by_key(|s| s.op);
    a
}

/// Video durations, for bounding dot positions.
pub type Durations = std::collections::HashMap<u64, f64>;

/// Check a dots response: status, DTO shape, id, and every dot a
/// finite position inside the video.
pub fn check_dots(video: u64, resp: &Resp, durations: &Durations) -> Result<DotsResponse, String> {
    if resp.status != 200 {
        return Err(format!("GET dots {video}: status {}", resp.status));
    }
    let dto: DotsResponse = serde_json::from_slice(&resp.body)
        .map_err(|e| format!("GET dots {video}: bad DTO: {e:?}"))?;
    let dur = durations.get(&video).copied().unwrap_or(f64::INFINITY);
    let ok = dto.video == video
        && dto.dots.len() == TOP_K
        && dto.dots.iter().all(|d| {
            d.at_seconds.is_finite() && d.score.is_finite() && (0.0..=dur).contains(&d.at_seconds)
        });
    if ok {
        Ok(dto)
    } else {
        Err(format!("GET dots {video}: malformed dots {dto:?}"))
    }
}

/// Check one sample; on success returns the batches the write acked
/// (0 for reads).
pub fn check(op: &Op, sample: &Sample, durations: &Durations) -> Result<u64, String> {
    let resp = sample.resp.as_ref().map_err(|e| e.clone())?;
    match op.kind {
        Kind::Read => check_dots(op.video, resp, durations).map(|_| 0),
        Kind::Write => check_write(op, resp),
    }
}

pub fn check_write(op: &Op, resp: &Resp) -> Result<u64, String> {
    if resp.status != 200 {
        return Err(format!(
            "POST {} video {}: status {} {}",
            op.path,
            op.video,
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    if op.path == "/sessions" {
        let a: SessionAccepted = serde_json::from_slice(&resp.body)
            .map_err(|e| format!("POST /sessions: bad DTO: {e:?}"))?;
        return if a.video == op.video && a.dots_refined <= TOP_K {
            Ok(1)
        } else {
            Err(format!("POST /sessions video {}: {a:?}", op.video))
        };
    }
    let a: StreamAccepted = serde_json::from_slice(&resp.body)
        .map_err(|e| format!("POST /sessions/stream: bad DTO: {e:?}"))?;
    let b = op.batches;
    if a.lines_accepted == b
        && a.lines_rejected == 0
        && a.batches_folded == b
        && a.batches_replayed == 0
        && a.last_seq == BATCHES_PER_STREAM
        && a.rejected.is_empty()
    {
        Ok(a.batches_folded)
    } else {
        Err(format!("POST /sessions/stream video {}: {a:?}", op.video))
    }
}
