//! The three workloads, their inputs, and the phases that drive them.

use crate::measure::{now_ns, poisson_arrivals, run_open_loop, Samples, Timed};
use crate::stack::{self, Blinded, Deployment};
use crate::trace::{context_for, Kind, Op, Span, SpanLog};
use orsp_net::{ClientConfig, NetClient, NetError, Request, Response};
use orsp_search::SearchQuery;
use orsp_server::MIN_AGGREGATE_SUPPORT;
use orsp_types::rng::{rng_for, rng_for_indexed};
use orsp_types::{EntityId, Timestamp};
use orsp_world::World;
use rand::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which workload, with everything that differs between them.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Weights of Search, FetchAggregate, Upload, IssueToken.
    pub mix: [u32; 4],
    /// Zipf-skewed entity and query popularity (else uniform).
    pub skewed: bool,
    /// Open-loop offered rate, requests per second.
    pub rate: f64,
    /// Prior histories written into the data directory before recovery.
    pub preload: usize,
    /// The operator loop publishes every [`PUBLISH_EVERY`] during the
    /// timed phases (else only during the freshness probe).
    pub publishes: bool,
    pub cluster: bool,
    /// Closed-loop input budget in requests per second, about 1.5x the
    /// measured capacity: tokens and blinded messages are prepared for
    /// this much, and a repetition that uses up its share ends early
    /// (its throughput still counts over its own elapsed time).
    pub closed_cap: f64,
}

/// The operator loop's publish interval.
pub const PUBLISH_EVERY: Duration = Duration::from_millis(100);

pub const BROWSE: Spec = Spec {
    name: "browse",
    mix: [60, 35, 5, 0],
    skewed: true,
    rate: 3_000.0,
    preload: 15_000,
    publishes: true,
    cluster: false,
    closed_cap: 16_000.0,
};

pub const INGEST: Spec = Spec {
    name: "ingest",
    mix: [0, 0, 100, 0],
    skewed: true,
    rate: 500.0,
    preload: 0,
    publishes: false,
    cluster: false,
    closed_cap: 2_500.0,
};

pub const CLUSTER: Spec = Spec {
    name: "cluster",
    mix: [40, 25, 25, 10],
    skewed: false,
    rate: 1_000.0,
    preload: 10_000,
    publishes: true,
    cluster: true,
    closed_cap: 5_000.0,
};

pub fn spec(name: &str) -> Option<Spec> {
    [BROWSE, INGEST, CLUSTER]
        .into_iter()
        .find(|s| s.name == name)
}

/// Seeds the fixed popularity order (not the run's `--seed`).
const POPULARITY_SEED: u64 = 0x5EED;

/// Zipf (s = 1) or uniform popularity over a fixed item list.
pub struct Popularity<T> {
    items: Vec<T>,
    /// Cumulative weights; empty for uniform.
    cdf: Vec<f64>,
}

impl<T: Copy> Popularity<T> {
    /// Popularity rank follows a fixed shuffle of `items`, the same for
    /// every seed: the shape of the load (which entity is hottest, how
    /// large its aggregate grows) is part of the workload, and the seed
    /// only draws the requests. The shuffle keeps the hottest query and
    /// the hottest entity independent of each other.
    pub fn new(mut items: Vec<T>, skewed: bool, label: &str) -> Popularity<T> {
        assert!(!items.is_empty(), "popularity over nothing");
        let mut rng = rng_for(POPULARITY_SEED, label);
        for i in (1..items.len()).rev() {
            let j = rng.gen_range(0..=i);
            items.swap(i, j);
        }
        let cdf = if skewed {
            let mut acc = 0.0;
            (1..=items.len())
                .map(|rank| {
                    acc += 1.0 / rank as f64;
                    acc
                })
                .collect()
        } else {
            Vec::new()
        };
        Popularity { items, cdf }
    }

    pub fn sample<R: Rng>(&self, rng: &mut R) -> T {
        if self.cdf.is_empty() {
            return self.items[rng.gen_range(0..self.items.len())];
        }
        let total = *self.cdf.last().expect("non-empty");
        let u = rng.gen_range(0.0..total);
        let i = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.items.len() - 1);
        self.items[i]
    }

    pub fn items(&self) -> &[T] {
        &self.items
    }
}

/// Everything generated from the seed at set-up.
pub struct Inputs {
    pub queries: Popularity<SearchQuery>,
    pub entities: Popularity<EntityId>,
    pub uploads: Vec<orsp_client::UploadRequest>,
    pub blinded: Vec<Blinded>,
}

pub fn popularity(world: &World, skewed: bool) -> (Popularity<SearchQuery>, Popularity<EntityId>) {
    let mut pairs: Vec<SearchQuery> = world
        .entities
        .iter()
        .map(|e| SearchQuery {
            zipcode: e.zipcode,
            category: e.category,
        })
        .collect();
    pairs.sort_by_key(|q| (q.zipcode, q.category));
    pairs.dedup();
    let queries = Popularity::new(pairs, skewed, "queries");
    let entities = Popularity::new(
        world.entities.iter().map(|e| e.id).collect(),
        skewed,
        "entities",
    );
    (queries, entities)
}

/// Build `count` uploads, each a fresh history spending one minted token.
pub fn prepare_uploads(
    seed: u64,
    entities: &Popularity<EntityId>,
    tokens: Vec<orsp_crypto::Token>,
) -> Vec<orsp_client::UploadRequest> {
    let mut rng = rng_for(seed, "rspbench-uploads");
    tokens
        .into_iter()
        .map(|token| {
            let minute = rng.gen_range(0..100_000);
            orsp_client::UploadRequest {
                record_id: stack::record_id(&mut rng),
                entity: entities.sample(&mut rng),
                interaction: stack::interaction(&mut rng, minute),
                token,
                release_at: Timestamp::EPOCH,
            }
        })
        .collect()
}

/// What happened to one request.
pub enum Outcome {
    Ok,
    /// Refused (`Busy`) or failed in transport.
    Failed,
    /// Answered, but the answer breaks a correctness rule.
    Wrong(String),
}

/// The shared state of a run's request issuing: input pools, the
/// acknowledged-write ledger and the correctness log.
pub struct Generator<'a> {
    pub spec: Spec,
    pub inputs: &'a Inputs,
    pub next_upload: AtomicUsize,
    /// The current phase's budget: uploads at or past this index wait.
    pub upload_limit: AtomicUsize,
    pub next_blinded: AtomicUsize,
    pub blinded_limit: AtomicUsize,
    /// Uploads acked: (ack ns, index into `inputs.uploads`).
    pub acked: Mutex<Vec<(u64, usize)>>,
    /// Uploads whose outcome is unknown (transport failure).
    pub unknown: Mutex<Vec<usize>>,
    /// Issued signatures: (index into `inputs.blinded`, response).
    pub issued: Mutex<Vec<(usize, Response)>>,
    pub errors: Mutex<Vec<String>>,
    pub hits: AtomicU64,
    pub searches: AtomicU64,
    pub next_id: AtomicU64,
    /// Client spans, when tracing.
    pub log: Option<Arc<SpanLog>>,
    /// Set when an open-loop or freshness request found its prepared
    /// input pool empty: those pools are sized exactly, so this is a fault.
    pub exhausted: AtomicBool,
}

impl<'a> Generator<'a> {
    pub fn new(spec: Spec, inputs: &'a Inputs, log: Option<Arc<SpanLog>>) -> Generator<'a> {
        Generator {
            spec,
            inputs,
            next_upload: AtomicUsize::new(0),
            upload_limit: AtomicUsize::new(inputs.uploads.len()),
            next_blinded: AtomicUsize::new(0),
            blinded_limit: AtomicUsize::new(inputs.blinded.len()),
            acked: Mutex::new(Vec::new()),
            unknown: Mutex::new(Vec::new()),
            issued: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            searches: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            log,
            exhausted: AtomicBool::new(false),
        }
    }

    /// Draw an operation from the mix.
    pub fn pick_op<R: Rng>(&self, rng: &mut R) -> Op {
        pick_op(&self.spec.mix, rng)
    }

    /// Let the next `uploads` uploads and `issues` token requests through
    /// (a phase's input budget).
    pub fn allow(&self, uploads: usize, issues: usize) {
        let next = self.next_upload.load(Ordering::Relaxed);
        self.upload_limit.store(
            (next + uploads).min(self.inputs.uploads.len()),
            Ordering::Relaxed,
        );
        let next = self.next_blinded.load(Ordering::Relaxed);
        self.blinded_limit.store(
            (next + issues).min(self.inputs.blinded.len()),
            Ordering::Relaxed,
        );
    }

    /// Build the request for `op`. `None` when the op's prepared pool is
    /// used up.
    fn request<R: Rng>(&self, op: Op, rng: &mut R) -> Option<(Request, Pending)> {
        Some(match op {
            Op::Search => (
                Request::Search {
                    query: self.inputs.queries.sample(rng),
                },
                Pending::Search,
            ),
            Op::Aggregate => (
                Request::FetchAggregate {
                    entity: self.inputs.entities.sample(rng),
                },
                Pending::Aggregate,
            ),
            Op::Upload => {
                let i = take(&self.next_upload, &self.upload_limit)?;
                let upload = self.inputs.uploads.get(i)?;
                (
                    Request::Upload {
                        upload: upload.clone(),
                        now: Timestamp::EPOCH,
                    },
                    Pending::Upload(i),
                )
            }
            Op::IssueToken => {
                let i = take(&self.next_blinded, &self.blinded_limit)?;
                let b = self.inputs.blinded.get(i)?;
                (
                    Request::IssueToken {
                        device: b.device,
                        blinded: b.blinded.clone(),
                        now: Timestamp::EPOCH,
                    },
                    Pending::Issue(i),
                )
            }
            _ => unreachable!("not a client op"),
        })
    }

    /// Send one request of kind `op` and judge the answer. `None` when
    /// the op's prepared pool is used up (nothing was sent).
    pub fn send<R: Rng>(
        &self,
        client: &mut NetClient,
        op: Op,
        rng: &mut R,
    ) -> Option<(Op, Outcome)> {
        let (request, pending) = self.request(op, rng)?;
        let traced = self.log.as_ref().is_some_and(|l| l.enabled());
        let id = if traced {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let ctx = traced.then(|| context_for(id));
        let start_ns = now_ns();
        let result = client.call_traced_with(&request, ctx).map(|(r, _)| r);
        let end_ns = now_ns();
        if let (true, Some(log)) = (traced, &self.log) {
            log.record(Span {
                id,
                kind: Kind::Client,
                node: 0,
                op,
                start_ns,
                end_ns,
                items: 0,
            });
        }
        Some((op, self.judge(pending, result, end_ns)))
    }

    fn judge(&self, pending: Pending, result: Result<Response, NetError>, end_ns: u64) -> Outcome {
        let response = match result {
            Ok(r) => r,
            Err(_) => {
                if let Pending::Upload(i) = pending {
                    self.unknown.lock().expect("unknown log").push(i);
                }
                return Outcome::Failed;
            }
        };
        let floor = MIN_AGGREGATE_SUPPORT;
        match (pending, response) {
            (_, Response::Busy) => Outcome::Failed,
            (Pending::Search, Response::SearchResults { hits }) => {
                self.searches.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(hits.len() as u64, Ordering::Relaxed);
                match hits
                    .iter()
                    .find(|h| h.histories != 0 && (h.histories as usize) < floor)
                {
                    Some(h) => Outcome::Wrong(format!(
                        "search hit {} carries support {} below the floor {floor}",
                        h.entity, h.histories
                    )),
                    None => Outcome::Ok,
                }
            }
            (Pending::Aggregate, Response::Aggregate { aggregate }) => match aggregate {
                Some(a) if a.histories < floor => Outcome::Wrong(format!(
                    "aggregate for {} carries support {} below the floor {floor}",
                    a.entity, a.histories
                )),
                _ => Outcome::Ok,
            },
            (Pending::Upload(i), Response::UploadAccepted) => {
                self.acked.lock().expect("ack log").push((end_ns, i));
                Outcome::Ok
            }
            (Pending::Issue(i), response @ Response::TokenIssued { .. }) => {
                self.issued.lock().expect("issue log").push((i, response));
                Outcome::Ok
            }
            (Pending::Upload(i), other) => {
                self.unknown.lock().expect("unknown log").push(i);
                Outcome::Wrong(format!("fresh upload answered {other:?}"))
            }
            (_, other) => Outcome::Wrong(format!("unexpected answer {other:?}")),
        }
    }
}

/// Claim the next index of a pool, unless it has reached its limit.
fn take(next: &AtomicUsize, limit: &AtomicUsize) -> Option<usize> {
    let limit = limit.load(Ordering::Relaxed);
    next.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |i| {
        (i < limit).then_some(i + 1)
    })
    .ok()
}

/// Draw an operation from `mix` (weights of Search, FetchAggregate,
/// Upload, IssueToken).
pub fn pick_op<R: Rng>(mix: &[u32; 4], rng: &mut R) -> Op {
    let total: u32 = mix.iter().sum();
    let mut x = rng.gen_range(0..total);
    for (op, w) in Op::CLIENT.iter().zip(mix) {
        if x < *w {
            return *op;
        }
        x -= w;
    }
    unreachable!("weights cover the range")
}

/// An open-loop phase fixed by the seed: Poisson arrivals at the spec's
/// rate, each arrival's operation and parameters drawn from its own
/// stream (so they do not depend on which connection sends it).
pub struct Schedule {
    pub label: String,
    pub arrivals: Vec<u64>,
    /// Uploads and token requests among the arrivals.
    pub uploads: usize,
    pub issues: usize,
}

pub fn schedule(spec: &Spec, seed: u64, label: &str, duration: Duration) -> Schedule {
    let arrivals = poisson_arrivals(&mut rng_for(seed, label), spec.rate, duration);
    let (mut uploads, mut issues) = (0, 0);
    for i in 0..arrivals.len() {
        match pick_op(&spec.mix, &mut rng_for_indexed(seed, label, i as u64)) {
            Op::Upload => uploads += 1,
            Op::IssueToken => issues += 1,
            _ => {}
        }
    }
    Schedule {
        label: label.into(),
        arrivals,
        uploads,
        issues,
    }
}

#[derive(Clone, Copy)]
enum Pending {
    Search,
    Aggregate,
    Upload(usize),
    Issue(usize),
}

/// Per-operation results of one phase.
#[derive(Default)]
pub struct PhaseStats {
    pub attempted: u64,
    pub failed: u64,
    pub completed_ok: u64,
    /// Generator lateness in µs (open loop only).
    pub lag_us: Samples,
    /// Open loop: (due ns, latency µs) per op, for windowed percentiles.
    /// A failed or refused request counts as infinitely late.
    pub timeline: [Vec<(u64, f64)>; 4],
    pub elapsed_s: f64,
    /// A closed-loop repetition that used up its input budget.
    pub ran_dry: bool,
}

fn op_index(op: Op) -> usize {
    Op::CLIENT.iter().position(|o| *o == op).expect("client op")
}

impl PhaseStats {
    /// Count one answered request; `point` is its (time, latency µs) for
    /// the timeline.
    fn tally(
        &mut self,
        generator: &Generator,
        op: Op,
        outcome: Outcome,
        point: Option<(u64, f64)>,
    ) {
        self.attempted += 1;
        if let Some((at, latency)) = point {
            let latency = if matches!(outcome, Outcome::Ok) {
                latency
            } else {
                f64::INFINITY
            };
            self.timeline[op_index(op)].push((at, latency));
        }
        match outcome {
            Outcome::Ok => self.completed_ok += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Wrong(e) => {
                self.failed += 1;
                generator.errors.lock().expect("error log").push(e);
            }
        }
    }
}

/// The generator's connections: no client-side retry, so a `Busy`
/// refusal is counted, not hidden.
pub fn connect(addr: std::net::SocketAddr) -> NetClient {
    let config = ClientConfig {
        max_retries: 0,
        ..ClientConfig::default()
    };
    let mut client = NetClient::connect(addr, config).expect("connect to the front door");
    client.ping().expect("front door answers");
    client
}

/// Open loop: the schedule's arrivals over `conns` connections, each
/// request timed from when it was due.
pub fn open_loop(
    generator: &Generator,
    addr: std::net::SocketAddr,
    conns: usize,
    schedule: &Schedule,
    seed: u64,
) -> PhaseStats {
    let (arrivals, label) = (&schedule.arrivals, schedule.label.as_str());
    generator.allow(schedule.uploads, schedule.issues);
    let clients: Vec<NetClient> = (0..conns).map(|_| connect(addr)).collect();
    let outcomes: Vec<Mutex<Option<(Op, Outcome)>>> =
        (0..arrivals.len()).map(|_| Mutex::new(None)).collect();
    let started = now_ns();
    let timed: Vec<Timed> = run_open_loop(arrivals, clients, |client, i| {
        let mut r = rng_for_indexed(seed, label, i as u64);
        let op = generator.pick_op(&mut r);
        let out = generator.send(client, op, &mut r);
        *outcomes[i].lock().expect("outcome slot") = out;
    });
    let mut stats = PhaseStats {
        elapsed_s: (now_ns() - started) as f64 / 1e9,
        ..PhaseStats::default()
    };
    for t in &timed {
        stats.lag_us.push(t.lag_ns as f64 / 1e3);
        match outcomes[t.index].lock().expect("outcome slot").take() {
            Some((op, outcome)) => stats.tally(
                generator,
                op,
                outcome,
                Some((t.due_ns, t.latency_ns() as f64 / 1e3)),
            ),
            None => {
                generator.exhausted.store(true, Ordering::Relaxed);
            }
        }
    }
    stats
}

/// Closed loop: `conns` connections, each sending its next request when
/// the previous answer arrives, for `duration` or until the phase's
/// input budget runs dry, which ends it for every connection.
pub fn closed_loop(
    generator: &Generator,
    addr: std::net::SocketAddr,
    conns: usize,
    duration: Duration,
    seed: u64,
    label: &str,
) -> PhaseStats {
    let stop = AtomicBool::new(false);
    let started = now_ns();
    let deadline = started + duration.as_nanos() as u64;
    let per_thread: Vec<PhaseStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = connect(addr);
                    let mut rng = rng_for_indexed(seed, label, t as u64);
                    let mut stats = PhaseStats::default();
                    while !stop.load(Ordering::Relaxed) && now_ns() < deadline {
                        let op = generator.pick_op(&mut rng);
                        match generator.send(&mut client, op, &mut rng) {
                            Some((op, outcome)) => stats.tally(generator, op, outcome, None),
                            None => {
                                stats.ran_dry = true;
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop worker"))
            .collect()
    });
    let mut total = PhaseStats {
        elapsed_s: (now_ns() - started) as f64 / 1e9,
        ..PhaseStats::default()
    };
    for s in per_thread {
        total.attempted += s.attempted;
        total.failed += s.failed;
        total.completed_ok += s.completed_ok;
        total.ran_dry |= s.ran_dry;
    }
    total
}

/// One timed `publish_aggregates` call: (node, start ns, end ns).
pub type Publish = (usize, u64, u64);

/// The operator loop the daemon lacks: publish on every node at a fixed
/// interval until `stop` is set.
pub fn publisher(deployment: &Deployment, every: Duration, stop: &AtomicBool) -> Vec<Publish> {
    let mut log = Vec::new();
    let mut next = now_ns();
    while !stop.load(Ordering::Relaxed) {
        next += every.as_nanos() as u64;
        for (i, node) in deployment.nodes.iter().enumerate() {
            let t0 = now_ns();
            node.service.publish_aggregates();
            log.push((i, t0, now_ns()));
        }
        let now = now_ns();
        if next > now {
            std::thread::sleep(Duration::from_nanos(next - now));
        }
    }
    log
}

/// Freshness: for each acked upload, the end of the first publish on its
/// node that started after the ack, in ms.
pub fn visible_lag_ms(
    acks: &[(u64, usize)],
    node_of: impl Fn(usize) -> usize,
    publishes: &[Publish],
) -> Samples {
    let mut by_node: Vec<Vec<(u64, u64)>> = Vec::new();
    for &(node, start, end) in publishes {
        if by_node.len() <= node {
            by_node.resize(node + 1, Vec::new());
        }
        by_node[node].push((start, end));
    }
    for list in &mut by_node {
        list.sort_unstable();
    }
    let mut out = Samples::new();
    for &(ack, upload) in acks {
        let Some(list) = by_node.get(node_of(upload)) else {
            continue;
        };
        let i = list.partition_point(|&(start, _)| start < ack);
        if let Some(&(_, end)) = list.get(i) {
            out.push((end - ack) as f64 / 1e6);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_the_head_and_uniform_does_not() {
        let mut rng = rng_for(3, "t");
        let zipf = Popularity::new((0..100u32).collect(), true, "t");
        let flat = Popularity::new((0..100u32).collect(), false, "t");
        let head = zipf.items()[0];
        let (mut z, mut f) = (0, 0);
        for _ in 0..10_000 {
            z += u32::from(zipf.sample(&mut rng) == head);
            f += u32::from(flat.sample(&mut rng) == head);
        }
        assert!(z > 1_500, "zipf head drawn {z} times");
        assert!(f < 300, "uniform item drawn {f} times");
    }

    #[test]
    fn lag_is_measured_to_the_end_of_the_next_publish() {
        let publishes = [(0, 100, 150), (0, 300, 380), (1, 120, 130)];
        let lag = visible_lag_ms(&[(90_000_000, 0)], |_| 0, &[(0, 100_000_000, 150_000_000)]);
        assert_eq!(lag.len(), 1);
        let acks = [(110, 0), (290, 1), (400, 2)];
        let node = |u: usize| if u == 1 { 1 } else { 0 };
        let l = visible_lag_ms(&acks, node, &publishes);
        // ack 110 on node 0 → publish starting 300 ends 380; ack 290 on
        // node 1 → none after; ack 400 → none.
        assert_eq!(l.len(), 1);
        assert!((l.mean().unwrap() - 270e-6).abs() < 1e-12);
    }
}
