//! Everything the program receives, generated from the workload seed
//! before any clock starts: the operation schedule, the crowdsim
//! viewers' sessions, and the exact request bytes.

use crate::procs::{get_request, post_request, SERVE_SEED};
use lightor::{ExtractorConfig, FeatureSet, HighlightExtractor, ModelBundle};
use lightor_chatsim::{dota2_dataset, SimPlatform};
use lightor_crowdsim::worker::sample_pool;
use lightor_crowdsim::{simulate_session, Campaign, SessionParams};
use lightor_eval::harness::{train_initializer, train_type_classifier};
use lightor_platform::wire::{DotsResponse, EventDto, SessionUpload, StreamBatchDto};
use lightor_simkit::SeedTree;
use lightor_types::{GameKind, Sec, Session};
use rand::Rng;

/// Dots per video (`ServiceConfig::default().top_k`).
pub const TOP_K: usize = 5;
/// Sequenced batches per streamed upload: one viewer visits this many
/// dots of a video, one batch per visit, in one NDJSON body.
pub const BATCHES_PER_STREAM: u64 = 3;
/// Zipf exponent of read popularity over the catalog.
const ZIPF_S: f64 = 1.0;

/// One workload's traffic shape. Counts derive from `--seconds` only,
/// so every count is the same on every commit and seed.
pub struct Spec {
    pub name: &'static str,
    /// `lightor-router` in front of two `lightor-serve` shards.
    pub routed: bool,
    /// Share of operations that are writes.
    pub write_share: f64,
    /// Writes are sequenced `POST /sessions/stream` bodies; otherwise
    /// single unsequenced `POST /sessions` uploads.
    pub stream: bool,
    /// Offered open-loop rate, operations per second (both connections).
    pub open_rate: f64,
    /// Open-loop operations per second of `--seconds`.
    pub open_ops_per_s: f64,
    /// Closed-loop operations per second of `--seconds`.
    pub closed_ops_per_s: f64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "viewers",
        routed: false,
        write_share: 0.05,
        stream: false,
        open_rate: 4000.0,
        open_ops_per_s: 2000.0,
        closed_ops_per_s: 12000.0,
    },
    Spec {
        name: "uploaders",
        routed: false,
        write_share: 0.9,
        stream: true,
        open_rate: 30.0,
        open_ops_per_s: 30.0,
        closed_ops_per_s: 50.0,
    },
    Spec {
        name: "routed",
        routed: true,
        write_share: 0.2,
        stream: true,
        open_rate: 150.0,
        open_ops_per_s: 150.0,
        closed_ops_per_s: 150.0,
    },
];

impl Spec {
    pub fn find(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn open_ops(&self, seconds: u64) -> usize {
        (self.open_ops_per_s * seconds as f64).round() as usize
    }

    pub fn closed_ops(&self, seconds: u64) -> usize {
        (self.closed_ops_per_s * seconds as f64).round() as usize
    }
}

/// The simulated platform `lightor-serve --seed SERVE_SEED` crawls.
pub fn platform() -> SimPlatform {
    SimPlatform::top_channels(GameKind::Dota2, 3, 4, SERVE_SEED ^ 3)
}

/// The catalog ids as `lightor-serve` prints them.
pub fn catalog(platform: &SimPlatform) -> Vec<u64> {
    let mut ids: Vec<u64> = platform.all_videos().map(|v| v.video.meta.id.0).collect();
    ids.sort_unstable();
    ids
}

/// The models `lightor-serve --seed SERVE_SEED` trains at boot, by the
/// same recipe, for the in-process runs.
pub fn models() -> ModelBundle {
    let seed = SERVE_SEED;
    let labelled = dota2_dataset(1, seed);
    let train: Vec<_> = labelled.videos.iter().collect();
    let mut campaign = Campaign::new(300, seed ^ 1);
    let initializer = train_initializer(&train, FeatureSet::Full);
    let (classifier, _) = train_type_classifier(&train, &mut campaign, 4, seed ^ 2);
    ModelBundle {
        initializer,
        extractor: HighlightExtractor::new(classifier, ExtractorConfig::default()),
        provenance: format!("lightor-serve seed {seed}"),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One scheduled operation.
#[derive(Clone, Debug)]
pub struct Op {
    pub video: u64,
    pub kind: Kind,
    /// Closed-loop connection (0 or 1) the operation's video is pinned to.
    pub conn: usize,
    /// Write path (`/sessions` or `/sessions/stream`) and body; empty
    /// for reads.
    pub path: &'static str,
    pub body: Vec<u8>,
    /// The exact request bytes sent to the program.
    pub raw: Vec<u8>,
    /// Sequenced batches the write carries (1 for `/sessions`).
    pub batches: u64,
}

impl Op {
    /// The connection the operation goes out on. The closed loop pins
    /// each video to one connection, balancing work. The open loop sends
    /// reads on connection 0 and uploads on connection 1, so a read
    /// never queues behind an upload in the client: read latency shows
    /// whether writes stall the server's read path. Either way a video's
    /// uploads keep one order, and the refined state stays a function of
    /// the seed.
    pub fn lane(&self, open: bool) -> usize {
        match (open, self.kind) {
            (false, _) => self.conn,
            (true, Kind::Read) => 0,
            (true, Kind::Write) => 1,
        }
    }
}

/// The whole run's operations: `ops[..n_open]` run open loop, the rest
/// closed loop.
pub struct Plan {
    pub ops: Vec<Op>,
    pub n_open: usize,
}

/// Slices per load loop. The open and the closed loop alternate slice
/// by slice, so both sample the whole run's span of the machine's
/// state instead of one stretch each.
pub const SLICES: usize = 20;

impl Plan {
    /// The execution order: `(range, is_open)` slices, alternating
    /// open and closed. Every run, in-process ones included, executes
    /// operations in exactly this order.
    pub fn slices(&self) -> Vec<(std::ops::Range<usize>, bool)> {
        let cut = |r: std::ops::Range<usize>, i: usize| {
            let len = r.len();
            r.start + len * i / SLICES..r.start + len * (i + 1) / SLICES
        };
        (0..SLICES)
            .flat_map(|i| {
                [
                    (cut(0..self.n_open, i), true),
                    (cut(self.n_open..self.ops.len(), i), false),
                ]
            })
            .filter(|(r, _)| !r.is_empty())
            .collect()
    }

    /// Operation indices in execution order.
    pub fn order(&self) -> impl Iterator<Item = usize> + '_ {
        self.slices().into_iter().flat_map(|(r, _)| r)
    }

    /// Build the schedule for `spec` from the cold-phase dots.
    pub fn generate(
        spec: &Spec,
        seed: u64,
        seconds: u64,
        platform: &SimPlatform,
        cold: &[DotsResponse],
    ) -> Plan {
        let n_open = spec.open_ops(seconds);
        let n = n_open + spec.closed_ops(seconds);
        let videos: Vec<u64> = cold.iter().map(|d| d.video).collect();
        let root = SeedTree::new(seed).child(spec.name);

        // Zipf popularity over a seeded permutation of the catalog.
        let mut order = videos.clone();
        let mut rng = root.child("popularity").rng();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let weights: Vec<f64> = (0..order.len())
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut reads = root.child("reads").rng();
        let mut pick = move || {
            let mut x = reads.gen::<f64>() * total;
            for (v, w) in order.iter().zip(&weights) {
                if x < *w {
                    return *v;
                }
                x -= w;
            }
            *order.last().expect("non-empty catalog")
        };

        // Exact write count; writes rotate over the catalog so every
        // video gets the same history length.
        let mut skeleton: Vec<(u64, Kind)> = Vec::with_capacity(n);
        let mut writes = 0usize;
        for i in 0..n {
            let is_write =
                ((i + 1) as f64 * spec.write_share).floor() > (i as f64 * spec.write_share).floor();
            if is_write {
                skeleton.push((videos[writes % videos.len()], Kind::Write));
                writes += 1;
            } else {
                skeleton.push((pick(), Kind::Read));
            }
        }

        // Sessions: one crowdsim viewer per write, visiting dots of the
        // cold-phase placement.
        let params = SessionParams::default();
        let mut viewers: std::collections::HashMap<u64, std::vec::IntoIter<Vec<Session>>> =
            Default::default();
        for (vi, dots) in cold.iter().enumerate() {
            let count = skeleton
                .iter()
                .filter(|(v, k)| *v == dots.video && *k == Kind::Write)
                .count();
            let truth = &platform
                .ground_truth(lightor_types::VideoId(dots.video))
                .expect("catalog video")
                .video;
            let mut rng = root.child("sessions").index(vi as u64).rng();
            let pool = sample_pool(count, (dots.video + 1) << 20, &mut rng);
            let visits = if spec.stream { BATCHES_PER_STREAM } else { 1 };
            let per_viewer: Vec<Vec<Session>> = pool
                .iter()
                .enumerate()
                .map(|(j, worker)| {
                    (0..visits as usize)
                        .map(|b| {
                            let dot = &dots.dots[(j + b) % dots.dots.len()];
                            simulate_session(truth, Sec(dot.at_seconds), worker, &params, &mut rng)
                        })
                        .collect()
                })
                .collect();
            viewers.insert(dots.video, per_viewer.into_iter());
        }

        let mut ops: Vec<Op> = skeleton
            .into_iter()
            .map(|(video, kind)| match kind {
                Kind::Read => Op {
                    video,
                    kind,
                    conn: 0,
                    path: "",
                    body: Vec::new(),
                    raw: get_request(&format!("/video/{video}/dots")),
                    batches: 0,
                },
                Kind::Write => {
                    let sessions = viewers
                        .get_mut(&video)
                        .and_then(Iterator::next)
                        .expect("one viewer per write");
                    write_op(video, spec.stream, &sessions)
                }
            })
            .collect();
        assign_connections(&mut ops);
        Plan { ops, n_open }
    }
}

fn events(session: &Session) -> Vec<EventDto> {
    session.events.iter().map(|&e| EventDto::from(e)).collect()
}

fn write_op(video: u64, stream: bool, sessions: &[Session]) -> Op {
    let client = sessions[0].user.0;
    let (path, content_type, body) = if stream {
        let mut body = Vec::new();
        for (i, s) in sessions.iter().enumerate() {
            let line = StreamBatchDto {
                video,
                client,
                seq: Some(i as u64 + 1),
                events: events(s),
            };
            body.extend_from_slice(
                serde_json::to_string(&line)
                    .expect("DTO serializes")
                    .as_bytes(),
            );
            body.push(b'\n');
        }
        ("/sessions/stream", "application/x-ndjson", body)
    } else {
        let upload = SessionUpload {
            video,
            client,
            events: events(&sessions[0]),
        };
        let body = serde_json::to_string(&upload).expect("DTO serializes");
        ("/sessions", "application/json", body.into_bytes())
    };
    Op {
        video,
        kind: Kind::Write,
        conn: 0,
        path,
        raw: post_request(path, content_type, "", &body),
        body,
        batches: sessions.len() as u64,
    }
}

/// Pin every video to one of the two connections, balancing estimated
/// work (a write costs about as much as 20 reads per batch), so the
/// per-video operation order, and with it the refined state, is fixed.
fn assign_connections(ops: &mut [Op]) {
    let mut load: std::collections::BTreeMap<u64, f64> = Default::default();
    for op in ops.iter() {
        *load.entry(op.video).or_default() += match op.kind {
            Kind::Read => 1.0,
            Kind::Write => 20.0 * op.batches as f64,
        };
    }
    let mut by_load: Vec<(u64, f64)> = load.into_iter().collect();
    by_load.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut totals = [0.0f64; 2];
    let mut conn_of = std::collections::HashMap::new();
    for (video, l) in by_load {
        let c = usize::from(totals[1] < totals[0]);
        totals[c] += l;
        conn_of.insert(video, c);
    }
    for op in ops.iter_mut() {
        op.conn = conn_of[&op.video];
    }
}
