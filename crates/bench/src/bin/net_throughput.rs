//! Net throughput — the wire-facing service under load.
//!
//! Serves a generated world over TCP on a loopback port, then drives it
//! three ways:
//!
//! 1. **Closed loop**: N client threads, each firing its next request the
//!    moment the previous response lands. Reports aggregate throughput
//!    and p50/p99 latency over a realistic RPC mix (search, aggregate
//!    fetch, ping, blind-token issue).
//! 2. **Open loop**: the same mix at a fixed target arrival rate per
//!    thread, the shape that exposes queueing delay closed loops hide.
//!    Latency counts from each request's intended send time, and the
//!    generator lag (how far behind schedule a send started) is
//!    reported beside it.
//! 3. **Saturation**: a deliberately tiny server (2 workers, queue depth
//!    2) with every slot pinned by idle connections — each further
//!    arrival must receive an explicit `Busy` frame, never a silent drop.
//!
//! Writes `results/BENCH_net_throughput.json`.
//!
//! ```sh
//! cargo run --release -p orsp-bench --bin net_throughput
//! cargo run --release -p orsp-bench --bin net_throughput -- --clients 8 --seconds 5
//! ```

use orsp_bench::{arg_u64, f, header, seed_from_args};
use orsp_core::{serve, service_for_world, PipelineConfig};
use orsp_crypto::{BlindingSession, RsaPublicKey};
use orsp_net::{ClientConfig, NetClient, NetError, NetServer, ServerConfig};
use orsp_search::SearchQuery;
use orsp_types::rng::rng_for_indexed;
use orsp_types::{Category, DeviceId, SimDuration, Timestamp};
use orsp_world::{World, WorldConfig};
use rand::Rng;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct PhaseResult {
    requests: u64,
    errors: u64,
    secs: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
    /// Open loop only: how late sends started against their schedule.
    lag_p99_us: u64,
    lag_max_us: u64,
}

impl PhaseResult {
    fn throughput(&self) -> f64 {
        if self.secs > 0.0 {
            self.requests as f64 / self.secs
        } else {
            0.0
        }
    }
}

fn main() {
    let seed = seed_from_args();
    let clients = arg_u64("clients", 4) as usize;
    let seconds = arg_u64("seconds", 3);
    let open_rate = arg_u64("rate", 300); // per-thread target, open loop
    header("NET", "TCP service: closed/open-loop load, latency, Busy shedding");

    let world = World::generate(WorldConfig {
        users_per_zipcode: 30,
        horizon: SimDuration::days(60),
        ..WorldConfig::tiny(seed)
    })
    .unwrap();
    let config = PipelineConfig::default();
    let server_config = ServerConfig {
        workers: clients + 2, // connection-per-worker: every client gets a slot
        queue_depth: 64,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let (server, service) = serve(&world, &config, "127.0.0.1:0", server_config).expect("bind");
    let public = service.mint_public_key();
    let addr = server.local_addr();
    println!(
        "\nserver: {addr} — {} workers, queue depth {}, {} listings indexed",
        server_config.workers,
        server_config.queue_depth,
        world.entities.len()
    );

    println!("\n-- closed loop: {clients} clients, {seconds}s --");
    let closed = run_phase(addr, clients, seconds, seed, &world, &public, None);
    report(&closed);

    println!("\n-- open loop: {clients} clients @ {open_rate} req/s each, {seconds}s --");
    let open = run_phase(addr, clients, seconds, seed + 1, &world, &public, Some(open_rate));
    report(&open);

    let stats = server.shutdown();
    println!(
        "\nserver counters: {} connections, {} requests, {} shed, {} protocol errors",
        stats.accepted, stats.requests, stats.shed, stats.protocol_errors
    );
    assert_eq!(stats.protocol_errors, 0, "load generator must speak clean protocol");
    assert_eq!(closed.errors + open.errors, 0, "no client-side failures allowed");

    println!("\n-- saturation: 2 workers + queue 2, all pinned --");
    let (probes, busy) = run_saturation(&world, &config);
    println!("{busy}/{probes} surplus arrivals got an explicit Busy (0 silent drops)");
    assert_eq!(busy, probes, "overload must shed with Busy, never silently");

    let target_ok = closed.throughput() >= 1_000.0;
    println!(
        "\nclosed-loop aggregate: {} req/s (target >= 1000: {})",
        f(closed.throughput()),
        if target_ok { "PASS" } else { "FAIL" }
    );

    write_json(seed, clients, seconds, open_rate, &closed, &open, probes, busy);
}

fn report(r: &PhaseResult) {
    println!(
        "{} requests in {}s -> {} req/s   p50 {}us  p99 {}us  max {}us  errors {}",
        r.requests,
        f(r.secs),
        f(r.throughput()),
        r.p50_us,
        r.p99_us,
        r.max_us,
        r.errors
    );
    if r.lag_max_us > 0 {
        println!("generator lag: p99 {}us  max {}us", r.lag_p99_us, r.lag_max_us);
    }
}

/// One load phase. `open_rate: None` = closed loop (fire on response);
/// `Some(r)` = open loop (fixed arrival schedule of `r` req/s per thread).
fn run_phase(
    addr: SocketAddr,
    clients: usize,
    seconds: u64,
    seed: u64,
    world: &World,
    public: &RsaPublicKey,
    open_rate: Option<u64>,
) -> PhaseResult {
    let deadline = Duration::from_secs(seconds);
    let zipcodes: Vec<u32> = world.zipcodes.iter().map(|z| z.code).collect();
    let entities: Vec<_> = world.entities.iter().map(|e| e.id).collect();
    let categories = Category::all_physical();
    let started = Instant::now();

    let handles: Vec<_> = (0..clients)
        .map(|thread| {
            let zipcodes = zipcodes.clone();
            let entities = entities.clone();
            let categories = categories.clone();
            let public = public.clone();
            std::thread::spawn(move || {
                worker(
                    addr, thread, seed, deadline, open_rate, &zipcodes, &entities, &categories,
                    &public,
                )
            })
        })
        .collect();

    let mut latencies: Vec<u64> = Vec::new();
    let mut lags: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    for handle in handles {
        let (lat, lag, err) = handle.join().expect("bench worker panicked");
        latencies.extend(lat);
        lags.extend(lag);
        errors += err;
    }
    let secs = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    lags.sort_unstable();
    let pct = |sorted: &[u64], p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx]
    };
    PhaseResult {
        requests: latencies.len() as u64,
        errors,
        secs,
        p50_us: pct(&latencies, 0.50),
        p99_us: pct(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        lag_p99_us: pct(&lags, 0.99),
        lag_max_us: lags.last().copied().unwrap_or(0),
    }
}

/// One client thread: the RPC mix, with per-request latency capture.
/// Returns the latencies of successful requests, the open loop's
/// generator lags (empty for a closed loop), and the error count.
#[allow(clippy::too_many_arguments)]
fn worker(
    addr: SocketAddr,
    thread: usize,
    seed: u64,
    deadline: Duration,
    open_rate: Option<u64>,
    zipcodes: &[u32],
    entities: &[orsp_types::EntityId],
    categories: &[Category],
    public: &RsaPublicKey,
) -> (Vec<u64>, Vec<u64>, u64) {
    let mut rng = rng_for_indexed(seed, "net-bench", thread as u64);
    let mut client =
        NetClient::connect(addr, ClientConfig::default()).expect("bench client connect");
    client.ping().expect("warmup ping");

    let interval = open_rate.map(|r| Duration::from_secs_f64(1.0 / r.max(1) as f64));
    let begin = Instant::now();
    let mut next_send = begin;
    let mut latencies: Vec<u64> = Vec::with_capacity(8192);
    let mut lags: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    let mut i = 0u64;
    while begin.elapsed() < deadline {
        let t0 = match interval {
            // Open loop: hold the arrival schedule even when responses
            // are fast; if we fall behind, send immediately. The clock
            // starts at the intended send time, so the wait a late send
            // spent behind its predecessors stays in the sample (no
            // coordinated omission); the lateness itself is the lag.
            Some(step) => {
                let intended = next_send;
                let now = Instant::now();
                if intended > now {
                    std::thread::sleep(intended - now);
                }
                lags.push(Instant::now().saturating_duration_since(intended).as_micros() as u64);
                next_send += step;
                intended
            }
            None => Instant::now(),
        };
        let ok = match i % 16 {
            0 | 8 => client.ping().is_ok(),
            1 | 2 | 9 | 10 => {
                let entity = entities[rng.gen_range(0..entities.len())];
                client.fetch_aggregate(entity).is_ok()
            }
            7 => {
                // The expensive RPC: a blind signature over the wire. One
                // fresh device per call so the rate limiter never denies.
                let device = DeviceId::new(1 + thread as u64 * 1_000_000_000 + i);
                let mut message = [0u8; 32];
                rng.fill(&mut message);
                let (session, blinded) = BlindingSession::blind(&mut rng, public, &message);
                match client.issue_token(device, &blinded, Timestamp::EPOCH) {
                    Ok(Ok(signature)) => session.unblind(&signature).is_ok(),
                    _ => false,
                }
            }
            _ => {
                let query = SearchQuery {
                    zipcode: zipcodes[rng.gen_range(0..zipcodes.len())],
                    category: categories[rng.gen_range(0..categories.len())],
                };
                client.search(query).is_ok()
            }
        };
        if ok {
            latencies.push(t0.elapsed().as_micros() as u64);
        } else {
            errors += 1;
        }
        i += 1;
    }
    (latencies, lags, errors)
}

/// Saturate a tiny server and verify every surplus arrival is told.
fn run_saturation(world: &World, config: &PipelineConfig) -> (u64, u64) {
    let server_config = ServerConfig {
        workers: 2,
        queue_depth: 2,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let service = Arc::new(service_for_world(world, config));
    let server =
        NetServer::bind("127.0.0.1:0", service.clone(), server_config).expect("bind");
    let addr = server.local_addr();

    // Pin both workers and both queue slots with idle connections.
    let mut pins: Vec<TcpStream> = Vec::new();
    for _ in 0..(server_config.workers + server_config.queue_depth) {
        pins.push(TcpStream::connect(addr).expect("pin"));
        std::thread::sleep(Duration::from_millis(100));
    }

    // Every further arrival must receive an explicit Busy frame.
    let probes = 16u64;
    let mut busy = 0u64;
    let probe_config = ClientConfig {
        max_retries: 0,
        read_timeout: Duration::from_secs(2),
        ..ClientConfig::default()
    };
    for _ in 0..probes {
        match NetClient::connect(addr, probe_config) {
            Ok(mut probe) => match probe.ping() {
                Err(NetError::Busy) => busy += 1,
                other => println!("  probe got {other:?} instead of Busy"),
            },
            Err(e) => println!("  probe connect failed: {e}"),
        }
    }
    drop(pins);
    let stats = server.shutdown();
    println!(
        "  tiny server: {} accepted, {} shed (sheds >= probes: {})",
        stats.accepted,
        stats.shed,
        stats.shed >= probes
    );
    (probes, busy)
}

/// Hand-rolled JSON (the workspace has no serde_json): flat and stable.
#[allow(clippy::too_many_arguments)]
fn write_json(
    seed: u64,
    clients: usize,
    seconds: u64,
    open_rate: u64,
    closed: &PhaseResult,
    open: &PhaseResult,
    probes: u64,
    busy: u64,
) {
    let phase = |r: &PhaseResult| {
        format!(
            "{{\"requests\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \
             \"max_us\": {}, \"errors\": {}}}",
            r.requests,
            r.throughput(),
            r.p50_us,
            r.p99_us,
            r.max_us,
            r.errors
        )
    };
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"net_throughput\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"clients\": {clients},\n"));
    out.push_str(&format!("  \"seconds\": {seconds},\n"));
    out.push_str(&format!("  \"closed_loop\": {},\n", phase(closed)));
    out.push_str(&format!("  \"open_loop_target_rps_per_client\": {open_rate},\n"));
    out.push_str(&format!("  \"open_loop\": {},\n", phase(open)));
    out.push_str(&format!("  \"open_loop_gen_lag_p99_us\": {},\n", open.lag_p99_us));
    out.push_str(&format!("  \"open_loop_gen_lag_max_us\": {},\n", open.lag_max_us));
    out.push_str(&format!(
        "  \"saturation\": {{\"probes\": {probes}, \"busy\": {busy}, \"silent_drops\": {}}},\n",
        probes - busy
    ));
    out.push_str(&format!(
        "  \"closed_loop_meets_1k_rps\": {}\n",
        closed.throughput() >= 1_000.0
    ));
    out.push_str("}\n");

    let path = "results/BENCH_net_throughput.json";
    match std::fs::write(path, &out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}
