//! Set-up: the world, the preloaded data directories, the served stack
//! (one durable node, or a proxy over two replicas), and the token pool.
//! Everything is wired in-process from the crates' public APIs, the way
//! the daemons wire it.

use crate::measure::now_ns;
use crate::trace::{SpanLog, TracedBackend, TracedPeer, TracedService, TracedSink, PROXY};
use orsp_core::{service_for_world_sharded, PipelineConfig};
use orsp_crypto::{BlindedMessage, BlindingSession, RsaPublicKey, Token};
use orsp_net::{
    ClientConfig, FrameService, NetPool, NetServer, ReplicaHook, Request, Response, RspService,
    ServerConfig, ServerStats,
};
use orsp_proxy::{BackendLink, ProxyConfig, ProxyService};
use orsp_replica::{
    PeerLink, RangeInit, ReplicaNode, ReplicatingSink, ReplicationMode, Role, Topology,
};
use orsp_server::{GroupCommitConfig, IngestService, WalBatchItem, WalEntry, WalSink};
use orsp_storage::{Dir, FsDir, FsyncPolicy, StorageEngine, StorageOptions};
use orsp_types::rng::rng_for;
use orsp_types::{
    DeviceId, EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp,
};
use orsp_world::{World, WorldConfig};
use rand::Rng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Replicas in the cluster workload (each holds both hash ranges: RF=2).
pub const CLUSTER_NODES: u32 = 2;

/// The world's seed, as the daemons default to: the served city and its
/// mint key are the deployment, fixed; `--seed` draws the inputs.
const WORLD_SEED: u64 = 13;

/// The world every workload serves: several zipcodes so search has many
/// (zipcode, category) pairs, few simulated users so generation is quick.
pub fn world() -> World {
    World::generate(WorldConfig {
        num_zipcodes: 6,
        users_per_zipcode: 4,
        horizon: SimDuration::days(14),
        ..WorldConfig::tiny(WORLD_SEED)
    })
    .expect("world generation")
}

/// Durable node options: fsync on every commit, group commit at the
/// daemon defaults.
pub fn storage_options() -> StorageOptions {
    StorageOptions {
        fsync: FsyncPolicy::Always,
        ..StorageOptions::default()
    }
}

fn group_commit() -> GroupCommitConfig {
    let o = storage_options();
    GroupCommitConfig {
        batch_max: o.group_commit_batch_max.max(1),
        window_us: o.group_commit_window_us,
    }
}

/// One history as the checker expects to recover it.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub entity: EntityId,
    pub interactions: Vec<Interaction>,
}

/// What must be durable after a run: every acked history and every
/// acked spend, by hash range (one range for a single node).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub histories: BTreeMap<RecordId, Expected>,
    pub spends: std::collections::BTreeSet<[u8; 32]>,
}

impl Ledger {
    pub fn add(
        &mut self,
        record_id: RecordId,
        entity: EntityId,
        interaction: Interaction,
        spend: [u8; 32],
    ) {
        self.histories
            .entry(record_id)
            .or_insert_with(|| Expected {
                entity,
                interactions: Vec::new(),
            })
            .interactions
            .push(interaction);
        self.spends.insert(spend);
    }
}

/// A fresh random record id.
pub fn record_id<R: Rng>(rng: &mut R) -> RecordId {
    let mut id = [0u8; 32];
    rng.fill(&mut id);
    RecordId::from_bytes(id)
}

/// A plausible interaction at minute `minute` of the simulated day.
pub fn interaction<R: Rng>(rng: &mut R, minute: i64) -> Interaction {
    Interaction::solo(
        InteractionKind::Visit,
        Timestamp::EPOCH + SimDuration::minutes(minute),
        SimDuration::minutes(rng.gen_range(5..90)),
        rng.gen_range(50.0..5_000.0),
    )
}

/// Write `histories` prior histories straight into the storage engines
/// of `dirs_for_range` (a restarted daemon's directory), as large commit
/// groups. Returns what was written, per hash range.
pub fn preload(
    seed: u64,
    histories: usize,
    entities: &crate::workload::Popularity<EntityId>,
    ranges: u32,
    dirs_for_range: &dyn Fn(u32) -> Vec<PathBuf>,
) -> Vec<Ledger> {
    let mut rng = rng_for(seed, "rspbench-preload");
    let mut ledgers = vec![Ledger::default(); ranges as usize];
    let mut batches: Vec<Vec<WalBatchItem>> = vec![Vec::new(); ranges as usize];
    for _ in 0..histories {
        let id = record_id(&mut rng);
        let entity = entities.sample(&mut rng);
        let range = orsp_server::shard_index(id.as_bytes(), ranges as usize);
        let visits = rng.gen_range(1..4);
        let mut minute = rng.gen_range(0..1_000);
        for _ in 0..visits {
            let inter = interaction(&mut rng, minute);
            minute += rng.gen_range(60..10_000);
            let mut spend = [0u8; 32];
            rng.fill(&mut spend);
            ledgers[range].add(id, entity, inter, spend);
            batches[range].push(WalBatchItem {
                spend: Some(spend),
                entry: WalEntry {
                    record_id: id,
                    entity,
                    interaction: inter,
                },
            });
        }
    }
    for (range, batch) in batches.iter().enumerate() {
        for path in dirs_for_range(range as u32) {
            let dir = Arc::new(FsDir::open(&path).expect("open preload dir"));
            let (engine, _) = StorageEngine::open(dir, storage_options()).expect("fresh engine");
            for chunk in batch.chunks(4_096) {
                engine.append_upload_batch(chunk).expect("preload append");
            }
        }
    }
    ledgers
}

/// A backend or a single node.
pub struct Node {
    pub service: Arc<RspService>,
    /// The node's own server (cluster backends; a single node is served
    /// by the deployment's front server).
    pub server: Option<NetServer>,
    pub replica: Option<Arc<ReplicaNode>>,
    /// (hash range, directory) for every data directory this node holds.
    pub dirs: Vec<(u32, PathBuf)>,
}

/// The served stack under test.
pub struct Deployment {
    pub front: NetServer,
    /// The front door's service, for in-process set-up calls.
    pub front_service: Arc<dyn FrameService>,
    pub proxy: Option<Arc<ProxyService>>,
    pub nodes: Vec<Node>,
    pub mint_public: RsaPublicKey,
    /// Milliseconds spent in `StorageEngine::open` across every directory.
    pub recover_ms: f64,
}

/// Counters the checks read after shutdown.
#[derive(Debug, Clone, Default)]
pub struct Drained {
    pub front: ServerStats,
    pub backends: Vec<ServerStats>,
    pub proxy_inconsistent: u64,
    pub proxy_retries: u64,
}

impl Deployment {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.front.local_addr()
    }

    /// The service that mints for `device`: the node itself, or in the
    /// cluster the backend the proxy routes that device to (one hop
    /// fewer than through the proxy; every backend shares the mint key).
    pub fn mint_target(&self, device: DeviceId) -> Arc<dyn FrameService> {
        match &self.proxy {
            Some(proxy) => Arc::clone(&self.nodes[proxy.backend_for_device(device)].service)
                as Arc<dyn FrameService>,
            None => Arc::clone(&self.front_service),
        }
    }

    /// Publish aggregates on every node (the operator loop's step).
    pub fn publish_all(&self) {
        for node in &self.nodes {
            node.service.publish_aggregates();
        }
    }

    /// Stop every server and replication worker, joining their threads.
    pub fn shutdown(self) -> Drained {
        let front = self.front.shutdown();
        let mut backends = Vec::new();
        for node in self.nodes {
            if let Some(server) = node.server {
                backends.push(server.shutdown());
            }
            if let Some(replica) = &node.replica {
                replica.shutdown();
            }
        }
        let (proxy_inconsistent, proxy_retries) = match &self.proxy {
            Some(p) => {
                let snap = p.obs().snapshot();
                let retries = (0..CLUSTER_NODES)
                    .map(|i| {
                        snap.counter(&format!("proxy_backend{i}_retried_total"))
                            .unwrap_or(0)
                    })
                    .sum();
                (
                    snap.counter("proxy_inconsistent_total").unwrap_or(0),
                    retries,
                )
            }
            None => (0, 0),
        };
        Drained {
            front,
            backends,
            proxy_inconsistent,
            proxy_retries,
        }
    }
}

fn open_engine(path: &Path) -> (Arc<dyn Dir>, StorageEngine, orsp_storage::RecoveryReport) {
    let dir: Arc<dyn Dir> = Arc::new(FsDir::open(path).expect("open data dir"));
    let (engine, report) =
        StorageEngine::open(Arc::clone(&dir), storage_options()).expect("recover data dir");
    (dir, engine, report)
}

fn wrap(
    service: Arc<dyn FrameService>,
    node: u32,
    log: &Option<Arc<SpanLog>>,
) -> Arc<dyn FrameService> {
    match log {
        Some(log) => Arc::new(TracedService::new(service, node, Arc::clone(log))),
        None => service,
    }
}

fn wrap_sink(sink: Arc<dyn WalSink>, node: u32, log: &Option<Arc<SpanLog>>) -> Arc<dyn WalSink> {
    match log {
        Some(log) => Arc::new(TracedSink::new(sink, node, Arc::clone(log))),
        None => sink,
    }
}

/// One durable node recovering `dir` (preloaded or fresh).
pub fn single_node(world: &World, dir: &Path, log: &Option<Arc<SpanLog>>) -> Deployment {
    let t0 = now_ns();
    let (_dir, engine, report) = open_engine(dir);
    let recover_ms = (now_ns() - t0) as f64 / 1e6;
    let engine = Arc::new(engine);
    let service = Arc::new(service_for_world_sharded(
        world,
        &PipelineConfig::default(),
        IngestService::from_parts(report.store, report.stats),
        None,
        engine.shard_count(),
    ));
    service.seed_spent_tokens(report.spent_tokens);
    service.set_durability_with(
        wrap_sink(engine as Arc<dyn WalSink>, 0, log),
        group_commit(),
    );
    service.publish_aggregates();
    let front_service = wrap(Arc::clone(&service) as Arc<dyn FrameService>, 0, log);
    let front = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&front_service),
        ServerConfig::default(),
    )
    .expect("bind node");
    let mint_public = service.mint_public_key();
    Deployment {
        front,
        front_service,
        proxy: None,
        nodes: vec![Node {
            service,
            server: None,
            replica: None,
            dirs: vec![(0, dir.to_path_buf())],
        }],
        mint_public,
        recover_ms,
    }
}

fn peer_client() -> ClientConfig {
    ClientConfig {
        call_deadline: Some(Duration::from_secs(15)),
        ..ClientConfig::default()
    }
}

/// The directory of `node`'s copy of `range` under `root`.
pub fn cluster_dir(root: &Path, node: u32, range: u32) -> PathBuf {
    let born = root.join(format!("node{node}"));
    if node == range {
        born
    } else {
        born.join(format!("follow-r{range}"))
    }
}

/// A proxy over [`CLUSTER_NODES`] replicas with RF=2 in sync mode, as
/// `orsp-replicad` and `orsp-proxy` wire it.
pub fn cluster(world: &World, root: &Path, log: &Option<Arc<SpanLog>>) -> Deployment {
    let n = CLUSTER_NODES;
    let mut recover_ms = 0.0;
    let mut nodes = Vec::new();
    let mut peer_slots: Vec<Vec<Option<Arc<TracedPeer>>>> = Vec::new();
    for i in 0..n {
        let topology = Topology::new(i, n, n);
        let mut inits = Vec::new();
        let mut born_report = None;
        let mut dirs = Vec::new();
        for range in topology.held_ranges() {
            let path = cluster_dir(root, i, range);
            let t0 = now_ns();
            let (dir, engine, report) = open_engine(&path);
            recover_ms += (now_ns() - t0) as f64 / 1e6;
            let role = if range == i {
                Role::Primary
            } else {
                Role::Follower
            };
            inits.push(RangeInit {
                range,
                role,
                epoch: report.epoch,
                dir,
                engine: Arc::new(engine),
            });
            if range == i {
                born_report = Some(report);
            }
            dirs.push((range, path));
        }
        let report = born_report.expect("born range held");
        let service = Arc::new(service_for_world_sharded(
            world,
            &PipelineConfig::default(),
            IngestService::from_parts(report.store, report.stats),
            None,
            storage_options().shard_count as usize,
        ));
        service.seed_spent_tokens(report.spent_tokens);
        let slots: Vec<Option<Arc<TracedPeer>>> = (0..n)
            .map(|j| (j != i).then(|| Arc::new(TracedPeer::new(i, log.clone()))))
            .collect();
        let peers: Vec<Option<Arc<dyn PeerLink>>> = slots
            .iter()
            .map(|s| s.as_ref().map(|p| Arc::clone(p) as Arc<dyn PeerLink>))
            .collect();
        let replica = Arc::new(ReplicaNode::new(
            topology,
            ReplicationMode::Sync,
            peers,
            inits,
            service.obs(),
        ));
        service.set_durability_with(
            wrap_sink(Arc::new(ReplicatingSink::new(Arc::clone(&replica))), i, log),
            group_commit(),
        );
        service.set_replica(Arc::clone(&replica) as Arc<dyn ReplicaHook>);
        service.publish_aggregates();
        let server = NetServer::bind(
            "127.0.0.1:0",
            wrap(Arc::clone(&service) as Arc<dyn FrameService>, i, log),
            ServerConfig::default(),
        )
        .expect("bind backend");
        peer_slots.push(slots);
        nodes.push(Node {
            service,
            server: Some(server),
            replica: Some(replica),
            dirs,
        });
    }
    let addrs: Vec<std::net::SocketAddr> = nodes
        .iter()
        .map(|n| n.server.as_ref().expect("backend server").local_addr())
        .collect();
    for slots in &peer_slots {
        for (j, slot) in slots.iter().enumerate() {
            if let Some(peer) = slot {
                peer.bind(Arc::new(NetPool::new(addrs[j], peer_client(), 2)));
            }
        }
    }
    let links: Vec<Arc<dyn BackendLink>> = addrs
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            let pool: Arc<dyn BackendLink> = Arc::new(NetPool::new(
                addr,
                ClientConfig {
                    call_deadline: Some(Duration::from_secs(10)),
                    ..ClientConfig::default()
                },
                4,
            ));
            match log {
                Some(log) => Arc::new(TracedBackend::new(pool, i as u32, Arc::clone(log)))
                    as Arc<dyn BackendLink>,
                None => pool,
            }
        })
        .collect();
    let proxy = Arc::new(ProxyService::new(
        links,
        ProxyConfig {
            replication_factor: n as usize,
            ..ProxyConfig::default()
        },
    ));
    let front_service = wrap(Arc::clone(&proxy) as Arc<dyn FrameService>, PROXY, log);
    let front = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&front_service),
        ServerConfig::default(),
    )
    .expect("bind proxy");
    let mint_public = nodes[0].service.mint_public_key();
    Deployment {
        front,
        front_service,
        proxy: Some(proxy),
        nodes,
        mint_public,
        recover_ms,
    }
}

/// A blinded token request prepared ahead of time, and what is needed
/// to unblind its answer.
pub struct Blinded {
    pub device: DeviceId,
    pub message: [u8; 32],
    pub blinded: BlindedMessage,
    pub session: BlindingSession,
}

/// Prepare `count` blinded messages for devices `first_device..`, one
/// device per `per_device` requests (the mint's rate window).
pub fn prepare_blinded(
    seed: u64,
    label: &str,
    public: &RsaPublicKey,
    first_device: u64,
    per_device: usize,
    count: usize,
) -> Vec<Blinded> {
    let mut rng = rng_for(seed, label);
    (0..count)
        .map(|i| {
            let mut message = [0u8; 32];
            rng.fill(&mut message);
            let (session, blinded) = BlindingSession::blind(&mut rng, public, &message);
            Blinded {
                device: DeviceId::new(first_device + (i / per_device.max(1)) as u64),
                message,
                blinded,
                session,
            }
        })
        .collect()
}

/// Unblind and verify one issued signature.
pub fn finish_token(b: Blinded, response: &Response) -> Result<Token, String> {
    match response {
        Response::TokenIssued { signature } => b
            .session
            .unblind(signature)
            .map(|signature| Token {
                message: b.message,
                signature,
            })
            .map_err(|e| format!("blind signature failed to verify: {e}")),
        other => Err(format!("token request answered {other:?}")),
    }
}

/// Mint `count` unique tokens through the service's own IssueToken path
/// (in-process calls into the minting node), on `threads` threads.
pub fn mint_tokens(
    deployment: &Deployment,
    seed: u64,
    count: usize,
    threads: usize,
) -> Result<Vec<Token>, String> {
    let per_device = orsp_core::PipelineConfig::default().tokens_per_window as usize;
    let blinded = prepare_blinded(
        seed,
        "rspbench-mint",
        &deployment.mint_public,
        1_000_000,
        per_device,
        count,
    );
    let chunk = count.div_ceil(threads.max(1)).max(1);
    let mut parts: Vec<Vec<Blinded>> = Vec::new();
    let mut it = blinded.into_iter().peekable();
    while it.peek().is_some() {
        parts.push(it.by_ref().take(chunk).collect());
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                scope.spawn(move || {
                    part.into_iter()
                        .map(|b| {
                            let response =
                                deployment
                                    .mint_target(b.device)
                                    .handle(Request::IssueToken {
                                        device: b.device,
                                        blinded: b.blinded.clone(),
                                        now: Timestamp::EPOCH,
                                    });
                            finish_token(b, &response)
                        })
                        .collect::<Result<Vec<Token>, String>>()
                })
            })
            .collect();
        let mut tokens = Vec::with_capacity(count);
        for h in handles {
            tokens.extend(h.join().expect("mint thread")?);
        }
        Ok(tokens)
    })
}

/// A small in-memory node for the decorator tests.
#[cfg(test)]
pub fn test_service(seed: u64) -> (Arc<dyn FrameService>, Arc<RspService>) {
    let world = World::generate(WorldConfig {
        users_per_zipcode: 4,
        horizon: SimDuration::days(7),
        ..WorldConfig::tiny(seed)
    })
    .expect("world");
    let service = Arc::new(service_for_world_sharded(
        &world,
        &PipelineConfig::default(),
        IngestService::new(),
        None,
        4,
    ));
    (Arc::clone(&service) as Arc<dyn FrameService>, service)
}

/// A deterministic request sequence touching every client RPC: token
/// issues, uploads spending those tokens, a publish-free aggregate fetch
/// and searches.
#[cfg(test)]
pub fn sample_requests(seed: u64) -> Vec<Request> {
    let (_, service) = test_service(seed);
    let public = service.mint_public_key();
    let blinded = prepare_blinded(seed, "sample", &public, 1, 64, 4);
    let mut rng = rng_for(seed, "sample-uploads");
    let mut out = Vec::new();
    for b in blinded {
        let issue = Request::IssueToken {
            device: b.device,
            blinded: b.blinded.clone(),
            now: Timestamp::EPOCH,
        };
        let token = finish_token(b, &service.handle(issue.clone())).expect("token");
        out.push(issue);
        out.push(Request::Upload {
            upload: orsp_client::UploadRequest {
                record_id: record_id(&mut rng),
                entity: EntityId::new(1),
                interaction: interaction(&mut rng, 10),
                token,
                release_at: Timestamp::EPOCH,
            },
            now: Timestamp::EPOCH,
        });
    }
    out.push(Request::FetchAggregate {
        entity: EntityId::new(1),
    });
    out.push(Request::Search {
        query: orsp_search::SearchQuery {
            zipcode: 0,
            category: orsp_types::Category::Restaurant(orsp_types::Cuisine::Thai),
        },
    });
    out
}
