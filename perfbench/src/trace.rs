//! The in-process traced run: the same generated operations, replayed
//! against a `LightorService` built the way `lightor-serve` builds it
//! and served by `HttpServer`, with spans recorded by this file around
//! every call into a layer.
//!
//! Span tree of one request (`rid`):
//!
//! ```text
//! request                      client: the whole operation
//! ├─ http.parse                client: RequestParser on the recorded bytes
//! └─ server.roundtrip          client: loopback write → response read
//!    ├─ router.dispatch        server worker: route resolve + DTO work
//!    │  ├─ router.line_parse   NDJSON line / upload JSON → Session
//!    │  └─ service.*           open_video / refine_batch
//!    └─ http.write             server worker: Response::write_to into a Vec
//! ```
//!
//! The server-side spans come from a `Handler` that wraps the service
//! and re-composes the route from its public calls, so each layer's
//! span nests inside its caller's. A layer's self time is its spans'
//! time minus their children's. Only some requests are traced; the
//! untraced rest of the same pass take the real route table and give
//! the tracing overhead. A pass through an in-process `RouterServer`
//! over two backends gives the cluster hop.

use crate::drive::{self, Durations};
use crate::inputs::{self, Kind, Op, Plan, Spec, TOP_K};
use crate::procs::{post_request, Conn, Resp};
use crate::stats::{mean, median, num};
use crate::{same_dots, Args, Report};
use lightor_platform::wire::{
    DotsResponse, RouterStatsResponse, SessionUpload, StreamAccepted, StreamBatchDto,
};
use lightor_platform::{LightorService, ServiceConfig};
use lightor_server::router::{dispatch, resolve, Route};
use lightor_server::{
    ClusterConfig, Handler, HttpMetrics, HttpServer, Limits, Request, RequestParser, Response,
    RouteKey, RouterServer, ServerConfig, SessionAccepted,
};
use lightor_types::VideoId;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's start.
#[derive(Clone, Debug)]
struct Span {
    id: u64,
    parent: u64,
    rid: u64,
    name: &'static str,
    start: u64,
    end: u64,
    /// `service.refine_batch`: the batch's index in its video's history.
    arg: u64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// In-memory span sink, written out when the run ends.
struct Spans {
    t0: Instant,
    next: AtomicU64,
    list: Mutex<Vec<Span>>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            list: Mutex::new(Vec::new()),
        }
    }

    fn alloc(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        id: u64,
        name: &'static str,
        rid: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        arg: u64,
    ) {
        let span = Span {
            id,
            parent,
            rid,
            name,
            start: self.ns(start),
            end: self.ns(end),
            arg,
        };
        self.list.lock().expect("span sink poisoned").push(span);
    }
}

/// The layer a span's self time is charged to.
fn layer(name: &str) -> &'static str {
    match name.split('.').next() {
        Some("http") => "http",
        Some("server") => "server",
        Some("router") => "router",
        Some("service") => "service",
        _ => "client",
    }
}

/// Requests traced per run, at most: every `n / TRACED_REQUESTS`-th,
/// and at least every other one untraced.
const TRACED_REQUESTS: usize = 10_000;

/// Operations the cluster-hop pass replays (a prefix of the run).
const HOP_REQUESTS: usize = 4_000;

const LAYERS: [&str; 5] = ["http", "server", "router", "service", "client"];

/// The traced handler: the route table's read and write routes,
/// re-composed from public calls with a span around each layer call.
/// Requests without trace headers go to the real route table.
struct Traced {
    svc: Arc<LightorService>,
    spans: Arc<Spans>,
    /// Batches folded so far per video (the history index).
    history: Arc<Mutex<HashMap<u64, u64>>>,
}

impl Traced {
    fn dots(&self, rid: u64, parent: u64, id: u64) -> Response {
        let (sid, t) = (self.spans.alloc(), Instant::now());
        let dots = self.svc.open_video(VideoId(id));
        self.spans
            .record(sid, "service.open_video", rid, parent, t, Instant::now(), 0);
        match dots {
            Ok(Some(dots)) => Response::json(
                200,
                &DotsResponse {
                    video: id,
                    dots: dots.into_iter().map(Into::into).collect(),
                },
            ),
            Ok(None) => Response::error(404, "unknown_video", "unknown video"),
            Err(e) => Response::error(500, "storage_error", &e.to_string()),
        }
    }

    /// Fold one parsed batch; `None` when the service refused it.
    fn fold(
        &self,
        rid: u64,
        parent: u64,
        video: VideoId,
        seq: Option<u64>,
        s: &lightor_types::Session,
    ) -> Option<lightor_platform::service::BatchOutcome> {
        let hist = {
            let mut h = self.history.lock().expect("history poisoned");
            let n = h.entry(video.0).or_default();
            *n += 1;
            *n - 1
        };
        let (sid, t) = (self.spans.alloc(), Instant::now());
        let out = self.svc.refine_batch(video, seq, s);
        self.spans.record(
            sid,
            "service.refine_batch",
            rid,
            parent,
            t,
            Instant::now(),
            hist,
        );
        out.ok().flatten()
    }

    fn stream(&self, rid: u64, parent: u64, body: &[u8]) -> Response {
        let mut ack = StreamAccepted {
            lines_accepted: 0,
            lines_rejected: 0,
            batches_folded: 0,
            batches_replayed: 0,
            plays_buffered: 0,
            dots_refined: 0,
            last_seq: 0,
            rejected: Vec::new(),
        };
        for line in body
            .split(|&b| b == b'\n')
            .filter(|l| !l.trim_ascii().is_empty())
        {
            let (sid, t) = (self.spans.alloc(), Instant::now());
            let parsed = serde_json::from_slice::<StreamBatchDto>(line)
                .ok()
                .and_then(|b| Some((b.seq, b.as_upload().try_into_session().ok()?)));
            self.spans
                .record(sid, "router.line_parse", rid, parent, t, Instant::now(), 0);
            let Some((seq, (video, session))) = parsed else {
                ack.lines_rejected += 1;
                continue;
            };
            match self.fold(rid, parent, video, seq, &session) {
                Some(o) => {
                    ack.lines_accepted += 1;
                    if o.replayed {
                        ack.batches_replayed += 1;
                    } else {
                        ack.batches_folded += 1;
                    }
                    ack.plays_buffered += o.plays_buffered as u64;
                    ack.dots_refined += o.dots_refined as u64;
                    ack.last_seq = ack.last_seq.max(seq.unwrap_or(0));
                }
                None => ack.lines_rejected += 1,
            }
        }
        Response::json(200, &ack)
    }

    fn session(&self, rid: u64, parent: u64, body: &[u8]) -> Response {
        let (sid, t) = (self.spans.alloc(), Instant::now());
        let parsed = serde_json::from_slice::<SessionUpload>(body)
            .ok()
            .and_then(|u| u.try_into_session().ok());
        self.spans
            .record(sid, "router.line_parse", rid, parent, t, Instant::now(), 0);
        let Some((video, session)) = parsed else {
            return Response::error(422, "bad_upload", "bad upload");
        };
        match self.fold(rid, parent, video, None, &session) {
            Some(o) => Response::json(
                200,
                &SessionAccepted {
                    video: video.0,
                    plays_buffered: o.plays_buffered,
                    dots_refined: o.dots_refined,
                },
            ),
            None => Response::error(500, "refused", "batch refused"),
        }
    }
}

impl Handler for Traced {
    fn handle(&self, req: &Request, metrics: &HttpMetrics) -> (RouteKey, Response) {
        let ids = req
            .header("x-request-id")
            .zip(req.header("x-parent-span"))
            .and_then(|(r, p)| Some((r.parse::<u64>().ok()?, p.parse::<u64>().ok()?)));
        let Some((rid, parent)) = ids else {
            return dispatch(&self.svc, metrics, req);
        };
        let (did, t) = (self.spans.alloc(), Instant::now());
        let (key, resp) = match resolve(&req.method, &req.path) {
            Ok(Route::Dots(id)) => (RouteKey::Dots, self.dots(rid, did, id)),
            Ok(Route::SessionsStream) => {
                (RouteKey::SessionsStream, self.stream(rid, did, &req.body))
            }
            Ok(Route::Sessions) => (RouteKey::Sessions, self.session(rid, did, &req.body)),
            _ => dispatch(&self.svc, metrics, req),
        };
        self.spans
            .record(did, "router.dispatch", rid, parent, t, Instant::now(), 0);
        let (wid, t) = (self.spans.alloc(), Instant::now());
        let mut out = Vec::with_capacity(resp.body.len() + 128);
        let _ = resp.write_to(&mut out, req.keep_alive);
        std::hint::black_box(&out);
        self.spans
            .record(wid, "http.write", rid, parent, t, Instant::now(), 0);
        (key, resp)
    }
}

/// A fresh in-process service on `dir`, built as `lightor-serve` does.
fn service(
    dir: &Path,
    models: &lightor::ModelBundle,
    platform: &lightor_chatsim::SimPlatform,
) -> Result<Arc<LightorService>, String> {
    LightorService::open(
        dir,
        models.clone(),
        platform.clone(),
        ServiceConfig::default(),
    )
    .map(Arc::new)
    .map_err(|e| format!("LightorService::open: {e}"))
}

fn request_bytes(op: &Op, extra: &str) -> Vec<u8> {
    match op.kind {
        Kind::Read => format!(
            "GET /video/{}/dots HTTP/1.1\r\nHost: lightor\r\n{extra}Content-Length: 0\r\n\r\n",
            op.video
        )
        .into_bytes(),
        Kind::Write => {
            let ct = if op.path == "/sessions" {
                "application/json"
            } else {
                "application/x-ndjson"
            };
            post_request(op.path, ct, extra, &op.body)
        }
    }
}

fn check(op: &Op, resp: std::io::Result<Resp>, durations: &Durations) -> Result<(), String> {
    let resp = resp.map_err(|e| e.to_string())?;
    match op.kind {
        Kind::Read => drive::check_dots(op.video, &resp, durations).map(|_| ()),
        Kind::Write => drive::check_write(op, &resp).map(|_| ()),
    }
}

/// Run the traced, untraced and cluster-hop passes; adds every
/// in-process per-layer metric to `rep`.
#[allow(clippy::too_many_lines)]
pub fn run(
    spec: &Spec,
    args: &Args,
    plan: &Plan,
    cold: &[DotsResponse],
    last: &[DotsResponse],
    work: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let models = inputs::models();
    let platform = inputs::platform();
    let catalog: Vec<u64> = cold.iter().map(|d| d.video).collect();
    let durations: Durations = catalog
        .iter()
        .map(|&v| {
            (
                v,
                platform
                    .video_meta(VideoId(v))
                    .expect("catalog video")
                    .duration
                    .0,
            )
        })
        .collect();
    let ops = &plan.ops;
    let n = ops.len();

    // Service-layer probes on the traced service before it serves:
    // cold opens (crawl + tokenize + score + persist), warm rescores.
    let svc = service(&work.join("traced"), &models, &platform)?;
    let mut cold_ms = Vec::new();
    for &v in &catalog {
        let t = Instant::now();
        let got = svc.open_video(VideoId(v)).map_err(|e| e.to_string())?;
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rep.attempt(match got {
            Some(d) if d.len() == TOP_K => Ok(()),
            other => Err(format!("in-process cold open {v}: {other:?}")),
        });
    }
    let mut rescore_ms = Vec::new();
    for _ in 0..3 {
        for &v in &catalog {
            let t = Instant::now();
            let got = svc
                .rescore_video(VideoId(v), TOP_K)
                .map_err(|e| e.to_string())?;
            rescore_ms.push(t.elapsed().as_secs_f64() * 1e3);
            rep.attempt(got.map(|_| ()).ok_or(format!("rescore {v}: unknown")));
        }
    }
    rep.metric("service.open_video_cold_ms", median(&cold_ms), "ms");
    rep.metric("service.rescore_ms", median(&rescore_ms), "ms");
    rep.metric(
        "chat.cold_crawl_ms",
        median(&cold_ms) - median(&rescore_ms),
        "ms",
    );

    // Traced pass: every operation of the run, in the run's order, one
    // client, back to back.
    let spans = Arc::new(Spans::new());
    let history = Arc::new(Mutex::new(HashMap::new()));
    let serve = |svc: &Arc<LightorService>| -> Result<(HttpServer, Conn), String> {
        let traced = Arc::new(Traced {
            svc: svc.clone(),
            spans: spans.clone(),
            history: history.clone(),
        });
        let server = HttpServer::bind_handler(("127.0.0.1", 0), traced, ServerConfig::default())
            .map_err(|e| format!("bind traced server: {e}"))?;
        let conn = Conn::connect(server.local_addr()).map_err(|e| e.to_string())?;
        Ok((server, conn))
    };
    let mut svc = svc;
    let (mut server, mut conn) = serve(&svc)?;
    let metrics = HttpMetrics::new();
    let (mut dispatch_us, mut cached_us) = (Vec::new(), Vec::new());
    // Every `stride`-th operation of each kind is traced; the rest take
    // the real route table untraced, and their round trips beside the
    // traced ones give the tracing overhead.
    let stride = (n / TRACED_REQUESTS).max(2);
    let mut plain_rt = [Vec::new(), Vec::new()]; // untraced round trips, read/write
    let mut seen = [0usize; 2];
    for (range, is_open) in plan.slices() {
        for i in range {
            let op = &ops[i];
            let kind = usize::from(op.kind == Kind::Write);
            seen[kind] += 1;
            if (seen[kind] - 1) % stride != 0 {
                let t = Instant::now();
                let resp = conn.roundtrip(&op.raw);
                plain_rt[kind].push(t.elapsed().as_secs_f64() * 1e6);
                rep.attempt(check(op, resp, &durations));
                continue;
            }
            let rid = i as u64 + 1;
            let (req_id, parse_id, rt_id) = (spans.alloc(), spans.alloc(), spans.alloc());
            let raw = request_bytes(
                op,
                &format!("X-Request-Id: {rid}\r\nX-Parent-Span: {rt_id}\r\n"),
            );
            let t0 = Instant::now();
            let mut parser = RequestParser::new(Limits::default());
            parser.extend(&op.raw);
            let parsed = parser.try_next();
            let t1 = Instant::now();
            spans.record(parse_id, "http.parse", rid, req_id, t0, t1, 0);
            let resp = conn.roundtrip(&raw);
            let t2 = Instant::now();
            spans.record(rt_id, "server.roundtrip", rid, req_id, t1, t2, 0);
            spans.record(req_id, "request", rid, 0, t0, t2, 0);
            rep.attempt(check(op, resp, &durations));
            // The real route table and the bare service read, for the
            // router's share of a dots request.
            if let (Kind::Read, Ok(Some(req))) = (op.kind, parsed) {
                let t = Instant::now();
                let (_, r) = dispatch(&svc, &metrics, &req);
                dispatch_us.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(r);
                let t = Instant::now();
                std::hint::black_box(svc.cached_dots(VideoId(op.video)));
                cached_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        if !is_open {
            // Where the binaries' run kills and restarts the shard, the
            // service restarts on its data dir too (memory that was never
            // persisted is gone, as after a kill -9) and compacts.
            drop(conn);
            server.shutdown();
            drop(svc);
            svc = service(&work.join("traced"), &models, &platform)?;
            svc.compact_storage()
                .map_err(|e| format!("compact_storage: {e}"))?;
            (server, conn) = serve(&svc)?;
        }
    }
    drop(conn);
    server.shutdown();
    let spans: Vec<Span> = std::mem::take(&mut *spans.list.lock().expect("span sink poisoned"));

    // Same final state as the binaries reached: refinement is a pure
    // function of the per-video batch order and the restart points.
    for want in last {
        rep.attempt(match svc.cached_dots(VideoId(want.video)) {
            Some(d) => {
                let got = DotsResponse {
                    video: want.video,
                    dots: d.into_iter().map(Into::into).collect(),
                };
                if same_dots(&got, want) {
                    Ok(())
                } else {
                    Err(format!(
                        "in-process dots {got:?} differ from the binaries' {want:?}"
                    ))
                }
            }
            None => Err(format!("in-process service lost video {}", want.video)),
        });
    }

    layer_metrics(ops, &spans, rep);
    let med_or_zero = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    rep.metric("router.dispatch_dots_us", med_or_zero(&dispatch_us), "us");
    rep.metric("service.cached_dots_us", med_or_zero(&cached_us), "us");
    rep.metric(
        "router.dots_self_us",
        med_or_zero(&dispatch_us) - med_or_zero(&cached_us),
        "us",
    );

    // Store probes on the final states.
    let states: Vec<lightor_platform::service::VideoState> = catalog
        .iter()
        .filter_map(|&v| svc.video_state(VideoId(v)))
        .collect();
    let (mut dead, mut marks, mut bytes) = (0usize, 0usize, Vec::new());
    for s in &states {
        marks += s.sessions.len();
        bytes.push(serde_json::to_vec(s).map_err(|e| format!("{e:?}"))?.len() as f64);
        // `pending` is private; its serialized form is the public view.
        if let Ok(serde_json::Value::Map(fields)) = serde_json::to_value(s) {
            for (k, v) in &fields {
                if let (true, serde_json::Value::Seq(dots)) = (k == "dots", v) {
                    for d in dots {
                        dead += dead_plays(d);
                    }
                }
            }
        }
    }
    rep.metric("service.dead_plays", dead as f64, "count");
    rep.metric("service.watermarks", marks as f64, "count");
    rep.metric("kv.state_bytes_mean", mean(&bytes), "B");
    rep.metric(
        "kv.state_bytes_max",
        bytes.iter().copied().fold(0.0, f64::max),
        "B",
    );
    let mut kv = lightor_platform::store::KvStore::open(work.join("kvput"))
        .map_err(|e| format!("KvStore::open: {e}"))?;
    let mut put_us = Vec::new();
    for round in 0..3 {
        for (i, s) in states.iter().enumerate() {
            let t = Instant::now();
            kv.put(&format!("video:{i}:{round}"), s)
                .map_err(|e| format!("KvStore::put: {e}"))?;
            put_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(kv);
    rep.metric("kv.put_us", median(&put_us), "us");
    drop(svc);

    // Tracing overhead: traced against untraced round trips of the
    // same kind, interleaved in the same pass.
    let traced_rt = |k: Kind| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == "server.roundtrip" && ops[(s.rid - 1) as usize].kind == k)
            .map(Span::dur_us)
            .collect()
    };
    let mut overhead = Vec::new();
    for (k, kind) in [(0, Kind::Read), (1, Kind::Write)] {
        let traced = traced_rt(kind);
        if traced.is_empty() || plain_rt[k].is_empty() {
            continue;
        }
        let (t, u) = (median(&traced), median(&plain_rt[k]));
        let name = ["read", "write"][k];
        eprintln!(
            "  {name} round trip: traced {t:.2} us, untraced {u:.2} us, overhead {:.1}%",
            (t / u - 1.0) * 100.0
        );
        rep.metric(&format!("trace.untraced_{name}_rt_us"), u, "us");
        overhead.push(format!(
            "\"{name}\": {{\"traced_us\": {}, \"untraced_us\": {}}}",
            num(t),
            num(u)
        ));
        if k == 0 {
            rep.metric("trace.overhead_share", t / u - 1.0, "fraction");
        }
    }
    rep.record.push((
        "tracing_overhead".into(),
        format!("{{{}}}", overhead.join(", ")),
    ));

    let prefix: Vec<usize> = plan.order().take(HOP_REQUESTS).collect();
    hop_pass(
        spec, ops, &prefix, &catalog, &durations, &models, &platform, work, rep,
    )?;
    write_spans(spec, args, &spans).map_err(|e| format!("writing spans: {e}"))?;
    Ok(())
}

/// Plays still pending on a converged dot, from its serialized state.
fn dead_plays(dot: &serde_json::Value) -> usize {
    let serde_json::Value::Map(fields) = dot else {
        return 0;
    };
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    match (get("converged"), get("pending")) {
        (Some(serde_json::Value::Bool(true)), Some(serde_json::Value::Seq(p))) => p.len(),
        _ => 0,
    }
}

/// Per-layer self times and the span-derived layer metrics.
fn layer_metrics(ops: &[Op], spans: &[Span], rep: &mut Report) {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.end - s.start;
    }
    let mut self_us: HashMap<&str, f64> = HashMap::new();
    let mut request_us = 0.0;
    for s in spans {
        let own = (s.end - s.start).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *self_us.entry(layer(s.name)).or_default() += own as f64 / 1e3;
        if s.name == "request" {
            request_us += s.dur_us();
        }
    }
    let traced = spans.iter().filter(|s| s.name == "request").count();
    let reqs = traced.max(1) as f64;
    eprintln!(
        "self time per traced request, {traced} of {} requests:",
        ops.len()
    );
    let mut table = Vec::new();
    for l in LAYERS {
        let v = self_us.get(l).copied().unwrap_or(0.0) / reqs;
        eprintln!("  {l:<8} {v:>10.2} us");
        table.push(format!("\"{l}\": {}", num(v)));
        if l != "client" {
            rep.metric(&format!("self.{l}_us"), v, "us");
        }
    }
    eprintln!("  {:<8} {:>10.2} us", "request", request_us / reqs);
    rep.metric("trace.request_us", request_us / reqs, "us");
    rep.record.push((
        "self_time_us_per_request".into(),
        format!("{{{}}}", table.join(", ")),
    ));

    // Per-request views by span name.
    let by_rid = |name: &str| -> HashMap<u64, f64> {
        let mut m = HashMap::new();
        for s in spans.iter().filter(|s| s.name == name) {
            *m.entry(s.rid).or_default() += s.dur_us();
        }
        m
    };
    let kind = |rid: u64| ops[(rid - 1) as usize].kind;
    let med = |xs: Vec<f64>| if xs.is_empty() { 0.0 } else { median(&xs) };
    let parse = by_rid("http.parse");
    let write = by_rid("http.write");
    let rt = by_rid("server.roundtrip");
    let disp = by_rid("router.dispatch");
    let svc_ops = by_rid("service.refine_batch");
    let pick = |m: &HashMap<u64, f64>, k: Kind| -> Vec<f64> {
        m.iter()
            .filter(|(r, _)| kind(**r) == k)
            .map(|(_, v)| *v)
            .collect()
    };
    rep.metric("http.parse_dots_us", med(pick(&parse, Kind::Read)), "us");
    rep.metric("http.parse_write_us", med(pick(&parse, Kind::Write)), "us");
    rep.metric("http.write_us", med(pick(&write, Kind::Read)), "us");
    let edge: Vec<f64> = rt
        .iter()
        .filter(|(r, _)| kind(**r) == Kind::Read)
        .map(|(r, v)| v - disp.get(r).copied().unwrap_or(0.0))
        .collect();
    rep.metric("server.edge_us", med(edge), "us");
    let line: Vec<f64> = disp
        .iter()
        .filter(|(r, _)| kind(**r) == Kind::Write)
        .map(|(r, v)| {
            (v - svc_ops.get(r).copied().unwrap_or(0.0)) / ops[(*r - 1) as usize].batches as f64
        })
        .collect();
    rep.metric("router.stream_line_us", med(line), "us");

    // refine_batch by history position within each video.
    let mut per_video: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "service.refine_batch") {
        let v = ops[(s.rid - 1) as usize].video;
        let e = per_video.entry(v).or_default();
        *e = (*e).max(s.arg + 1);
    }
    let (mut all, mut first, mut lastd) = (Vec::new(), Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.name == "service.refine_batch") {
        let total = per_video[&ops[(s.rid - 1) as usize].video];
        all.push(s.dur_us());
        if s.arg * 10 < total {
            first.push(s.dur_us());
        }
        if s.arg * 10 >= total * 9 {
            lastd.push(s.dur_us());
        }
    }
    rep.metric("service.refine_batch_us", med(all), "us");
    rep.metric("service.refine_batch_first_decile_us", med(first), "us");
    rep.metric("service.refine_batch_last_decile_us", med(lastd), "us");
}

/// The cluster hop: the same operations alternately through an
/// in-process `RouterServer` and straight to the owning backend.
#[allow(clippy::too_many_arguments)]
fn hop_pass(
    spec: &Spec,
    ops: &[Op],
    prefix: &[usize],
    catalog: &[u64],
    durations: &Durations,
    models: &lightor::ModelBundle,
    platform: &lightor_chatsim::SimPlatform,
    work: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let backends = (0..2)
        .map(|i| {
            let svc = service(&work.join(format!("hop{i}")), models, platform)?;
            HttpServer::bind(("127.0.0.1", 0), svc, ServerConfig::default())
                .map_err(|e| format!("bind backend: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let addrs: Vec<_> = backends.iter().map(HttpServer::local_addr).collect();
    let router = RouterServer::bind(
        ("127.0.0.1", 0),
        ClusterConfig::new(addrs.clone()),
        ServerConfig::default(),
    )
    .map_err(|e| format!("bind router: {e}"))?;
    let mut via = Conn::connect(router.local_addr()).map_err(|e| e.to_string())?;
    let mut direct = addrs
        .iter()
        .map(|&a| Conn::connect(a).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    for &v in catalog {
        let r = via
            .get(&format!("/video/{v}/dots"))
            .map_err(|e| e.to_string());
        rep.attempt(r.and_then(|r| drive::check_dots(v, &r, durations).map(|_| ())));
    }
    // [kind][0 = via router, 1 = direct]
    let mut us: [[Vec<f64>; 2]; 2] = Default::default();
    // Alternate sides per kind, so both sides see every kind whatever
    // the mix's period.
    let mut seen = [0usize; 2];
    for &i in prefix {
        let op = &ops[i];
        let kind = usize::from(op.kind == Kind::Write);
        let side = seen[kind] % 2;
        seen[kind] += 1;
        let conn = if side == 0 {
            &mut via
        } else {
            &mut direct[router.cluster().shard_for(op.video)]
        };
        let t = Instant::now();
        let resp = conn.roundtrip(&op.raw);
        us[kind][side].push(t.elapsed().as_secs_f64() * 1e6);
        rep.attempt(check(op, resp, durations));
    }
    let med = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    rep.metric("cluster.hop_read_us", med(&us[0][0]) - med(&us[0][1]), "us");
    rep.metric(
        "cluster.hop_write_us",
        med(&us[1][0]) - med(&us[1][1]),
        "us",
    );
    rep.metric(
        "cluster.hop_ratio",
        med(&us[0][0]) / med(&us[0][1]),
        "ratio",
    );
    if !spec.routed {
        let resp = via.get("/stats").map_err(|e| e.to_string())?;
        let s: RouterStatsResponse =
            serde_json::from_slice(&resp.body).map_err(|e| format!("router /stats: {e:?}"))?;
        let per_1k = |x: u64| x as f64 * 1e3 / s.requests.max(1) as f64;
        rep.metric(
            "cluster.retries_per_1k",
            per_1k(s.backends.iter().map(|b| b.retries).sum()),
            "count",
        );
        rep.metric(
            "cluster.proxy_errors_per_1k",
            per_1k(s.backends.iter().map(|b| b.proxy_errors).sum()),
            "count",
        );
    }
    drop(via);
    drop(direct);
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    Ok(())
}

fn write_spans(spec: &Spec, args: &Args, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let dir = Path::new(crate::OUT_DIR).join("spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", spec.name, args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\": {}, \"parent\": {}, \"rid\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"arg\": {}}}",
            s.id, s.parent, s.rid, s.name, s.start, s.end, s.arg
        )?;
    }
    f.flush()?;
    eprintln!("spans: {} ({} spans)", path.display(), spans.len());
    Ok(())
}
