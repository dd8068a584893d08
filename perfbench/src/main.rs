//! End-to-end and per-layer benchmark of the paper's Figure 5 loop:
//! simulated extension users fetch red dots and stream their play
//! sessions back, against the shipped `lightor-serve` and
//! `lightor-router` binaries.
//!
//! ```text
//! perfbench --workload viewers|uploaders|routed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload against the binaries and prints the
//! end-to-end metrics; `--trace 1` runs the same workload, reads the
//! program's own counters (`/stats`, `/proc`) over it, adds the
//! in-process traced run (see `trace.rs`), and prints the per-layer
//! metrics. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The full run record (sample counts, p50/p90/p99, generator
//! lateness) goes to `.perfbench/records/`, spans to `.perfbench/spans/`.

mod drive;
mod inputs;
mod procs;
mod stats;
mod trace;

use drive::Durations;
use inputs::{Kind, Plan, Spec};
use lightor_platform::wire::{DotsResponse, RouterStatsResponse, StatsResponse};
use procs::{Conn, Proc};
use stats::{median, num, Summary};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// First listening port tried for the `routed` shards. Below the
/// kernel's ephemeral range (32768 and up), so no client socket can
/// hold one when a shard restarts on it.
const SHARD_PORT_BASE: u16 = 21_171;
/// Where the benchmark writes: data dirs, records, spans.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| format!("{flag}: {e}"))? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Metrics and the run record being assembled.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra run-record fields: `(key, JSON text)`.
    pub record: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the record and stderr.
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn summary(&mut self, name: &str, xs: &[f64]) {
        self.record.push((name.to_string(), Summary::of(xs).json()));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                eprintln!("failed: {e}");
                self.failures.push(e);
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload viewers|uploaders|routed --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::find(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let work = PathBuf::from(OUT_DIR).join("work").join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    let result = run(spec, &args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            if let Err(e) = write_record(spec, &args, &report) {
                eprintln!("perfbench: writing run record: {e}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                report.failed == 0,
                report.attempted,
                report.failed,
                report.metrics_json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Binaries built by `run.sh` next to this executable's target dir.
fn bin(name: &str) -> Result<PathBuf, String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let p = Path::new(&dir).join("release").join(name);
    if p.is_file() {
        Ok(p)
    } else {
        Err(format!("{} not built (run perfbench/run.sh)", p.display()))
    }
}

/// The program's processes for one workload, plus what the shard
/// processes that recovery killed had counted before they died.
struct Topology {
    serves: Vec<Proc>,
    router: Option<Proc>,
    retired: Counters,
    /// Counters of restarted processes when their measured span began
    /// (after their boot and the compaction that follows a recovery).
    restart_base: Counters,
    /// CPU ms and storage bytes of killed processes within the
    /// measured span.
    retired_proc: (f64, f64),
    /// Per live pid: its CPU ms and storage bytes when its measured
    /// span began.
    base: HashMap<u32, (f64, f64)>,
    /// Per shard slot: the `VmHWM` of each of its killed processes.
    retired_hwm: Vec<Vec<f64>>,
}

impl Topology {
    /// Spawn every process and wait until each printed `listening` and
    /// the front door answered `GET /healthz`. Returns the set-up time.
    fn start(
        spec: &Spec,
        serve_bin: &Path,
        router_bin: &Path,
        dir: &Path,
        ports: [u16; 2],
    ) -> Result<(Topology, f64), String> {
        let t0 = Instant::now();
        let shards = if spec.routed { 2 } else { 1 };
        let mut serves = (0..shards)
            .map(|i| Proc::serve(serve_bin, &dir.join(format!("shard{i}")), ports[i]))
            .collect::<Result<Vec<_>, _>>()?;
        for s in &mut serves {
            s.wait_ready()?;
        }
        let router = if spec.routed {
            let addrs: Vec<SocketAddr> = serves.iter().map(|s| s.addr).collect();
            let mut r = Proc::router(router_bin, &addrs)?;
            r.wait_ready()?;
            Some(r)
        } else {
            None
        };
        let topo = Topology {
            retired_hwm: vec![Vec::new(); serves.len()],
            serves,
            router,
            retired: Counters::default(),
            restart_base: Counters::default(),
            retired_proc: (0.0, 0.0),
            base: HashMap::new(),
        };
        healthz(topo.front())?;
        Ok((topo, t0.elapsed().as_secs_f64()))
    }

    fn front(&self) -> SocketAddr {
        self.router.as_ref().unwrap_or(&self.serves[0]).addr
    }

    fn pids(&self) -> Vec<u32> {
        self.serves
            .iter()
            .chain(&self.router)
            .map(Proc::pid)
            .collect()
    }

    /// Start the measured span of every live process's `/proc` counters.
    fn begin_measure(&mut self) {
        self.base = self.pids().into_iter().map(|p| (p, proc_now(p))).collect();
    }

    /// CPU ms and storage bytes the program spent in the measured span,
    /// killed processes included.
    fn proc_spent(&self) -> (f64, f64) {
        self.pids()
            .into_iter()
            .fold(self.retired_proc, |(c, w), p| {
                let (c1, w1) = proc_now(p);
                let (c0, w0) = self.base.get(&p).copied().unwrap_or((c1, w1));
                (c + c1 - c0, w + w1 - w0)
            })
    }

    /// Sum over process slots of the mean `VmHWM` of the slot's
    /// processes, each read just before it was killed (or now). The
    /// mean, not the maximum: which allocator arenas a process happens
    /// to touch moves one reading by megabytes.
    fn rss_mb(&self) -> f64 {
        let shards: f64 = self
            .serves
            .iter()
            .zip(&self.retired_hwm)
            .map(|(s, h)| {
                (h.iter().sum::<f64>() + procs::vm_hwm_mb(s.pid())) / (h.len() + 1) as f64
            })
            .sum();
        shards
            + self
                .router
                .as_ref()
                .map_or(0.0, |r| procs::vm_hwm_mb(r.pid()))
    }

    /// `kill -9` shard 0 and restart it on its data dir and port. Ready
    /// means `listening` printed, `GET /healthz` answered, and every
    /// video in `owned` serving the dots it served before the kill;
    /// a mismatch is a failed operation. Returns the time from the kill.
    fn recover(
        &mut self,
        serve_bin: &Path,
        owned: &[u64],
        durations: &Durations,
        rep: &mut Report,
    ) -> Result<f64, String> {
        let victim = &self.serves[0];
        let mut acked = Vec::new();
        let mut conn = Conn::connect(victim.addr).map_err(|e| e.to_string())?;
        for &v in owned {
            let got = conn
                .get(&format!("/video/{v}/dots"))
                .map_err(|e| e.to_string());
            acked.push(got.and_then(|r| drive::check_dots(v, &r, durations))?);
            rep.attempt(Ok(()));
        }
        drop(conn);
        self.retired.add(&shard_stats(victim.addr)?);
        let (c1, w1) = proc_now(victim.pid());
        let (c0, w0) = self.base.get(&victim.pid()).copied().unwrap_or((c1, w1));
        self.retired_proc.0 += c1 - c0;
        self.retired_proc.1 += w1 - w0;
        self.retired_hwm[0].push(procs::vm_hwm_mb(victim.pid()));
        let (dir, port) = (
            victim.data_dir.clone().expect("serve has a data dir"),
            victim.addr.port(),
        );

        let t0 = Instant::now();
        self.serves[0].kill();
        let mut fresh = Proc::serve(serve_bin, &dir, port)?;
        fresh.wait_ready()?;
        healthz(fresh.addr)?;
        let mut conn = Conn::connect(fresh.addr).map_err(|e| e.to_string())?;
        let mut checks = Vec::new();
        for want in &acked {
            let got = conn
                .get(&format!("/video/{}/dots", want.video))
                .map_err(|e| e.to_string())
                .and_then(|r| drive::check_dots(want.video, &r, durations));
            checks.push(match got {
                Ok(d) if same_dots(&d, want) => Ok(()),
                Ok(d) => Err(format!("recovered dots differ: {d:?} vs acked {want:?}")),
                Err(e) => Err(e),
            });
        }
        let secs = t0.elapsed().as_secs_f64();
        for c in checks {
            rep.attempt(c);
        }
        // Untimed maintenance: fold the replayed WAL into snapshots, so
        // the next kill replays only what the next slice wrote. Without
        // it a workload whose writes stop persisting (converged dots)
        // replays one frozen WAL tail at every later kill, and its
        // length, anywhere up to the 1 MiB snapshot trigger, would set
        // `recover_s` by the seed.
        let compact = conn.roundtrip(&procs::post_request(
            "/admin/compact",
            "application/json",
            "",
            b"",
        ));
        rep.attempt(match compact {
            Ok(r) if r.status == 200 => Ok(()),
            Ok(r) => Err(format!("POST /admin/compact: status {}", r.status)),
            Err(e) => Err(format!("POST /admin/compact: {e}")),
        });
        // The restarted process's boot and compaction are outside the
        // measured span.
        self.restart_base.add(&shard_stats(fresh.addr)?);
        self.base.insert(fresh.pid(), proc_now(fresh.pid()));
        self.serves[0] = fresh;
        Ok(secs)
    }

    /// The program's counters, killed shard processes included: each
    /// shard's own `/stats`, plus the router's request and retry
    /// counts. Shards are asked directly: the router's `/stats` fan-out
    /// reports a just-restarted shard unreachable (its pooled
    /// connection died with the old process and the sweep does not
    /// retry).
    fn stats(&self) -> Result<Counters, String> {
        let mut total = self.retired;
        for s in &self.serves {
            total.add(&shard_stats(s.addr)?);
        }
        total.subtract(&self.restart_base);
        if let Some(r) = &self.router {
            let resp = Conn::connect(r.addr)
                .and_then(|mut c| c.get("/stats"))
                .map_err(|e| format!("router GET /stats: {e}"))?;
            let rs: RouterStatsResponse = serde_json::from_slice(&resp.body)
                .map_err(|e| format!("router GET /stats: bad DTO: {e:?}"))?;
            total.router_requests += rs.requests;
            for b in &rs.backends {
                total.retries += b.retries;
                total.proxy_errors += b.proxy_errors;
            }
        }
        Ok(total)
    }
}

/// Boots of the workload's topology on fresh data dirs: each one times
/// its set-up and its cold opens, and checks the `catalog:` line.
struct Boots<'a> {
    spec: &'a Spec,
    serve_bin: &'a Path,
    router_bin: &'a Path,
    catalog: &'a [u64],
    durations: &'a Durations,
    work: &'a Path,
    /// `routed` shard ports: the serving pair, then the pair the probe
    /// boots reuse.
    ports: [u16; 4],
}

impl Boots<'_> {
    /// Boot number `i`: set up, then one first-sight
    /// `GET /video/{id}/dots` per catalog video, one at a time. Returns
    /// the running topology and the cold-phase dots.
    fn boot(
        &self,
        i: usize,
        setups: &mut Vec<f64>,
        cold_ms: &mut Vec<f64>,
        rep: &mut Report,
    ) -> Result<(Topology, Vec<DotsResponse>), String> {
        let dir = self.work.join(format!("boot{i}"));
        // The ring hashes shard addresses, so routed shards listen on
        // fixed ports: the same videos land on the same shard every run.
        let ports = match (self.spec.routed, i) {
            (false, _) => [0, 0],
            (true, 0) => [self.ports[0], self.ports[1]],
            (true, _) => [self.ports[2], self.ports[3]],
        };
        let (topo, secs) =
            Topology::start(self.spec, self.serve_bin, self.router_bin, &dir, ports)?;
        setups.push(secs);
        for s in &topo.serves {
            if s.catalog != self.catalog {
                return Err(format!(
                    "catalog mismatch: lightor-serve printed {:?}, rebuilt {:?}",
                    s.catalog, self.catalog
                ));
            }
        }
        let front = topo.front();
        let mut conn = Conn::connect(front).map_err(|e| format!("connect {front}: {e}"))?;
        let mut cold = Vec::new();
        for &v in self.catalog {
            let start = Instant::now();
            let resp = conn
                .get(&format!("/video/{v}/dots"))
                .map_err(|e| format!("cold GET {v}: {e}"))?;
            cold_ms.push(start.elapsed().as_secs_f64() * 1e3);
            cold.push(drive::check_dots(v, &resp, self.durations)?);
            rep.attempt(Ok(()));
        }
        Ok((topo, cold))
    }
}

/// The first four free ports from `SHARD_PORT_BASE` up: the same four
/// on any machine where nothing else listens there.
fn free_ports() -> Result<[u16; 4], String> {
    let mut found = Vec::new();
    for p in SHARD_PORT_BASE..SHARD_PORT_BASE + 64 {
        if std::net::TcpListener::bind(("127.0.0.1", p)).is_ok() {
            found.push(p);
            if found.len() == 4 {
                return Ok([found[0], found[1], found[2], found[3]]);
            }
        }
    }
    Err(format!("no four free ports from {SHARD_PORT_BASE}"))
}

/// CPU ms and storage bytes of a process so far.
fn proc_now(pid: u32) -> (f64, f64) {
    (procs::cpu_ms(pid), procs::write_bytes(pid))
}

/// One shard's own `/stats` counters.
fn shard_stats(addr: SocketAddr) -> Result<StatsResponse, String> {
    let resp = Conn::connect(addr)
        .and_then(|mut c| c.get("/stats"))
        .map_err(|e| format!("GET /stats at {addr}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /stats at {addr}: status {}", resp.status));
    }
    serde_json::from_slice(&resp.body).map_err(|e| format!("GET /stats at {addr}: bad DTO: {e:?}"))
}

fn healthz(addr: SocketAddr) -> Result<(), String> {
    let resp = Conn::connect(addr)
        .and_then(|mut c| c.get("/healthz"))
        .map_err(|e| format!("GET /healthz at {addr}: {e}"))?;
    if resp.status == 200 {
        Ok(())
    } else {
        Err(format!("GET /healthz at {addr}: status {}", resp.status))
    }
}

/// The `/stats` counters the benchmark reads, summed over shards.
#[derive(Clone, Copy, Default, Debug)]
struct Counters {
    folded: u64,
    wal_appends: u64,
    shard_rewrites: u64,
    record_hits: u64,
    record_misses: u64,
    dots_requests: u64,
    dots_latency_us: u64,
    router_requests: u64,
    retries: u64,
    proxy_errors: u64,
}

impl Counters {
    /// Remove `o`'s shard counters (it was added before, so nothing
    /// underflows).
    fn subtract(&mut self, o: &Counters) {
        self.folded -= o.folded;
        self.wal_appends -= o.wal_appends;
        self.shard_rewrites -= o.shard_rewrites;
        self.record_hits -= o.record_hits;
        self.record_misses -= o.record_misses;
        self.dots_requests -= o.dots_requests;
        self.dots_latency_us -= o.dots_latency_us;
    }

    fn add(&mut self, s: &StatsResponse) {
        self.folded += s.stream_batches_folded;
        self.wal_appends += s.kv_wal_appends;
        self.shard_rewrites += s.kv_shard_rewrites;
        self.record_hits += s.record_cache_hits;
        self.record_misses += s.record_cache_misses;
        if let Some(r) = s.http.iter().find(|r| r.route == "GET /video/{id}/dots") {
            self.dots_requests += r.requests;
            self.dots_latency_us += r.latency_total_us;
        }
    }
}

fn run(spec: &Spec, args: &Args, work: &Path) -> Result<Report, String> {
    let serve_bin = bin("lightor-serve")?;
    let router_bin = bin("lightor-router")?;
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;

    // Untimed: the catalog lightor-serve must print, rebuilt from the
    // serve seed, and the ground truth the precision check scores on.
    let platform = inputs::platform();
    let catalog = inputs::catalog(&platform);
    let durations: Durations = catalog
        .iter()
        .map(|&v| {
            let meta = platform
                .video_meta(lightor_types::VideoId(v))
                .expect("catalog video");
            (v, meta.duration.0)
        })
        .collect();

    let mut rep = Report::default();
    rep.record
        .push(("offered_rate_ops_per_s".into(), num(spec.open_rate)));

    // 1. setup and 2. cold. The boot that serves the run comes first;
    // more boots on fresh data dirs follow between load slices, so the
    // set-up and cold-open samples span the whole run.
    let boots = Boots {
        spec,
        serve_bin: &serve_bin,
        router_bin: &router_bin,
        catalog: &catalog,
        durations: &durations,
        work,
        ports: free_ports()?,
    };
    let mut setups = Vec::new();
    let mut cold_ms = Vec::new();
    let (mut topo, cold) = boots.boot(0, &mut setups, &mut cold_ms, &mut rep)?;
    let front = topo.front();

    // 3. generate (untimed).
    let plan = Plan::generate(spec, args.seed, args.seconds, &platform, &cold);
    let n = plan.ops.len();
    rep.record
        .push(("open_ops".into(), plan.n_open.to_string()));
    rep.record
        .push(("closed_ops".into(), (n - plan.n_open).to_string()));
    let before = topo.stats()?;
    topo.begin_measure();
    // Videos the recovered shard owns.
    let owned: Vec<u64> = if spec.routed {
        let addrs: Vec<SocketAddr> = topo.serves.iter().map(|s| s.addr).collect();
        let ring = lightor_server::Cluster::new(lightor_server::ClusterConfig::new(addrs));
        catalog
            .iter()
            .copied()
            .filter(|&v| ring.shard_for(v) == 0)
            .collect()
    } else {
        catalog.clone()
    };
    let mut recovers = Vec::new();

    // 4. open loop and 5. closed loop, interleaved slice by slice (see
    // `Plan::slices`), each slice on fresh connections and threads and
    // checked as soon as it ends. After every closed slice, while the
    // load is paused: a probe boot (1. and 2. again on a fresh data
    // dir), then 7. recover, so recovery is timed at twenty points of
    // the growing history instead of one.
    let mut acked = 0u64;
    let mut served_us = Vec::new(); // open-loop read time from actual send
    let mut lat = [Vec::new(), Vec::new()]; // open-loop read, write
    let mut late_ms = Vec::new();
    let (mut reads, mut batches, mut busy) = (0u64, 0u64, 0.0f64);
    for (k, (range, is_open)) in plan.slices().into_iter().enumerate() {
        let samples = drive::run(front, &plan.ops, range, is_open.then_some(spec.open_rate));
        // Closed-loop throughput counts only the window in which both
        // connections were busy, so how the videos split across the two
        // connections does not move it.
        let both_busy = (0..2)
            .map(|c| {
                samples
                    .iter()
                    .filter(|s| plan.ops[s.op].conn == c)
                    .map(|s| s.done)
                    .fold(0.0, f64::max)
            })
            .fold(f64::INFINITY, f64::min);
        if !is_open {
            busy += both_busy;
        }
        for s in &samples {
            let op = &plan.ops[s.op];
            let outcome = drive::check(op, s, &durations);
            if let Ok(b) = outcome {
                acked += b;
                let kind = usize::from(op.kind == Kind::Write);
                if is_open {
                    lat[kind].push(s.latency() * 1e3);
                    if op.kind == Kind::Read {
                        served_us.push((s.done - s.sent) * 1e6);
                    }
                } else if s.done <= both_busy {
                    match op.kind {
                        Kind::Read => reads += 1,
                        Kind::Write => batches += b,
                    }
                }
            }
            if is_open {
                late_ms.push(s.lateness() * 1e3);
            }
            rep.attempt(outcome.map(|_| ()));
        }
        if !is_open {
            drop(boots.boot(k + 1, &mut setups, &mut cold_ms, &mut rep)?);
            recovers.push(topo.recover(&serve_bin, &owned, &durations, &mut rep)?);
        }
    }
    let (cpu_ms, io_bytes) = topo.proc_spent();
    let after = topo.stats()?;

    rep.summary("setup_s", &setups);
    rep.metric("setup_s", median(&setups), "s");
    rep.summary("cold_ms", &cold_ms);
    rep.metric("cold_p50_ms", median(&cold_ms), "ms");
    rep.summary("read_ms", &lat[0]);
    rep.summary("write_ms", &lat[1]);
    rep.summary("generator_late_ms", &late_ms);
    let q = |xs: &[f64], p| stats::quantile_sorted(&stats::sorted(xs), p);
    rep.metric("read_p50_ms", q(&lat[0], 0.5), "ms");
    rep.metric("write_p50_ms", q(&lat[1], 0.5), "ms");
    rep.record.push(("closed_busy_s".into(), num(busy)));
    rep.metric("read_rps", reads as f64 / busy, "req/s");
    rep.metric("batches_per_s", batches as f64 / busy, "batches/s");

    // 6. verify: final dots, precision, fold reconciliation.
    let mut conn = Conn::connect(front).map_err(|e| format!("connect {front}: {e}"))?;
    let mut last: Vec<DotsResponse> = Vec::new();
    let mut precision = Vec::new();
    for &v in &catalog {
        let got = conn
            .get(&format!("/video/{v}/dots"))
            .map_err(|e| e.to_string())
            .and_then(|r| drive::check_dots(v, &r, &durations));
        if let Ok(d) = &got {
            let truth = platform
                .ground_truth(lightor_types::VideoId(v))
                .expect("catalog video");
            let starts: Vec<lightor_types::Sec> = d
                .dots
                .iter()
                .map(|d| lightor_types::Sec(d.at_seconds))
                .collect();
            precision.push(lightor_eval::metrics::video_precision_start(&starts, truth));
            last.push(d.clone());
        }
        rep.attempt(got.map(|_| ()));
    }
    drop(conn);
    let folded = after.folded - before.folded;
    rep.attempt(if folded == acked {
        Ok(())
    } else {
        Err(format!(
            "/stats stream_batches_folded moved by {folded}, acked {acked}"
        ))
    });
    rep.metric("start_precision", stats::mean(&precision), "fraction");
    rep.record.push(("acked_batches".into(), acked.to_string()));

    rep.summary("recover_s", &recovers);
    rep.metric("recover_s", median(&recovers), "s");
    // 8. rss.
    rep.metric("rss_mb", topo.rss_mb(), "MB");

    if !args.trace {
        return Ok(rep);
    }

    // Per-layer: the program's counters over the load phases.
    let mut layers = Report {
        record: std::mem::take(&mut rep.record),
        attempted: rep.attempted,
        failed: rep.failed,
        failures: std::mem::take(&mut rep.failures),
        ..Report::default()
    };
    let per_batch = |x: f64| if acked > 0 { x / acked as f64 } else { 0.0 };
    layers.metric(
        "kv.wal_appends_per_batch",
        per_batch((after.wal_appends - before.wal_appends) as f64),
        "count",
    );
    layers.metric(
        "kv.shard_rewrites_per_1k_batches",
        per_batch((after.shard_rewrites - before.shard_rewrites) as f64) * 1e3,
        "count",
    );
    layers.metric(
        "chat.record_cache_hit_ratio",
        after.record_hits as f64 / (after.record_hits + after.record_misses).max(1) as f64,
        "fraction",
    );
    layers.metric("proc.cpu_ms_per_1k_ops", cpu_ms / n as f64 * 1e3, "ms");
    layers.metric("proc.write_bytes_per_batch", per_batch(io_bytes), "B");
    let handler_us = (after.dots_latency_us - before.dots_latency_us) as f64
        / (after.dots_requests - before.dots_requests).max(1) as f64;
    layers.metric(
        "server.queue_share",
        1.0 - handler_us / stats::mean(&served_us),
        "fraction",
    );
    layers.metric("gen.late_p99_ms", q(&late_ms, 0.99), "ms");
    if spec.routed {
        let per_1k = |x: u64| x as f64 * 1e3 / after.router_requests.max(1) as f64;
        layers.metric("cluster.retries_per_1k", per_1k(after.retries), "count");
        layers.metric(
            "cluster.proxy_errors_per_1k",
            per_1k(after.proxy_errors),
            "count",
        );
    }

    // kv.open_ms: open a copy of the killed shard's KV directory.
    let victim_dir = topo.serves[0]
        .data_dir
        .clone()
        .expect("serve has a data dir");
    topo.serves[0].kill();
    let mut opens = Vec::new();
    for i in 0..3 {
        let copy = work.join(format!("kvcopy{i}"));
        copy_dir(&victim_dir.join("state"), &copy).map_err(|e| format!("copy state dir: {e}"))?;
        let t = Instant::now();
        let kv = lightor_platform::store::KvStore::open(&copy)
            .map_err(|e| format!("KvStore::open: {e}"))?;
        opens.push(t.elapsed().as_secs_f64() * 1e3);
        drop(kv);
    }
    layers.metric("kv.open_ms", median(&opens), "ms");
    drop(topo);

    trace::run(spec, args, &plan, &cold, &last, work, &mut layers)?;
    Ok(layers)
}

/// Dots equal up to float formatting noise.
pub fn same_dots(a: &DotsResponse, b: &DotsResponse) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    a.video == b.video
        && a.dots.len() == b.dots.len()
        && a.dots
            .iter()
            .zip(&b.dots)
            .all(|(x, y)| close(x.at_seconds, y.at_seconds) && close(x.score, y.score))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn write_record(spec: &Spec, args: &Args, rep: &Report) -> std::io::Result<()> {
    let dir = Path::new(OUT_DIR).join("records");
    std::fs::create_dir_all(&dir)?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload".to_string(), format!("\"{}\"", spec.name)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        (
            "mode".to_string(),
            format!("\"{}\"", if args.trace { "trace" } else { "end_to_end" }),
        ),
        ("commit".to_string(), format!("\"{}\"", commit())),
        ("nproc".to_string(), nproc.to_string()),
        ("attempted".to_string(), rep.attempted.to_string()),
        ("failed".to_string(), rep.failed.to_string()),
    ];
    fields.extend(rep.record.iter().cloned());
    fields.push(("metrics".into(), rep.metrics_json()));
    let failures: Vec<String> = rep
        .failures
        .iter()
        .map(|f| serde_json::to_string(f).expect("strings serialize"))
        .collect();
    fields.push(("failures".into(), format!("[{}]", failures.join(", "))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))?;
    eprintln!("run record: {}", path.display());
    Ok(())
}
